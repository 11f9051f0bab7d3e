package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// provdArgsEnv, when set, makes the test binary run provd's main with
// these newline-separated arguments instead of the tests.
const provdArgsEnv = "PROVD_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(provdArgsEnv); args != "" {
		os.Args = append([]string{"provd"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestAdminBindFailureExits: in every mode, provd started with -admin
// on an address that is already taken exits promptly and non-zero
// instead of running without the probes a supervisor waits on. The
// modes that capture do the same for a taken -listen address; a
// follower binds no proxy.
func TestAdminBindFailureExits(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	taken := held.Addr().String()
	modes := map[string][]string{
		"single":   {"-dir", t.TempDir()},
		"sharded":  {"-shard-root", t.TempDir()},
		"follower": {"-follow", "http://127.0.0.1:1", "-dir", t.TempDir()},
	}
	for name, args := range modes {
		t.Run(name, func(t *testing.T) {
			requireBindExit(t, "admin listener", append(args, "-admin", taken, "-listen", "127.0.0.1:0"))
			if name != "follower" {
				requireBindExit(t, "proxy listener", append(args, "-admin", "127.0.0.1:0", "-listen", taken))
			}
		})
	}
}

// requireBindExit runs provd with args and requires it to exit promptly
// and non-zero, naming the listener it could not bind.
func requireBindExit(t *testing.T, listener string, args []string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), provdArgsEnv+"="+strings.Join(args, "\n"))
	start := time.Now()
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("provd still running %v after its %s bind failed:\n%s", time.Since(start), listener, out)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("provd exited with %v, want a non-zero exit:\n%s", err, out)
	}
	if !strings.Contains(string(out), listener) {
		t.Fatalf("provd output does not name the %s:\n%s", listener, out)
	}
}

// TestStopDuringStartup: a SIGTERM sent as soon as provd's admin port
// accepts connections, before startup has finished, stops provd
// gracefully (exit 0) rather than killing it. A supervisor may stop the
// daemon the moment its probes answer, so the handler must be installed
// before the admin listener is bound.
func TestStopDuringStartup(t *testing.T) {
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	admin := free.Addr().String()
	free.Close()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), provdArgsEnv+"="+strings.Join([]string{
		"-dir", t.TempDir(), "-admin", admin, "-listen", "127.0.0.1:0", "-scrub-every", "0"}, "\n"))
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if c, err := net.Dial("tcp", admin); err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("provd's admin port not accepting within 20s:\n%s", out.String())
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("provd stopped with %v, want a clean exit:\n%s", err, out.String())
		}
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("provd still running 20s after SIGTERM:\n%s", out.String())
	}
}
