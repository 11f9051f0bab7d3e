package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median of xs (xs is reordered).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencies collects per-operation times by kind, in milliseconds.
type latencies map[string][]float64

func (l latencies) add(kind string, d time.Duration) {
	l[kind] = append(l[kind], ms(d))
	l["op"] = append(l["op"], ms(d))
}

// requireSamples fails unless every kind has at least one sample, so that
// no median is ever taken over none (median of nothing reads 0, which
// would look like a speed-up rather than a failure).
func requireSamples(lat latencies, kinds ...string) error {
	for _, k := range kinds {
		if len(lat[k]) == 0 {
			return fmt.Errorf("no %s operation succeeded", k)
		}
	}
	return nil
}

// procIO is the /proc/<pid>/io counters the per-layer metrics use.
type procIO struct{ rchar, wchar, syscw float64 }

func readProcIO(pid int) (procIO, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return procIO{}, err
	}
	var p procIO
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
		switch k {
		case "rchar":
			p.rchar = n
		case "wchar":
			p.wchar = n
		case "syscw":
			p.syscw = n
		}
	}
	return p, nil
}

// clkTck is the kernel's USER_HZ, the unit of /proc/<pid>/stat times; it
// is 100 on every Linux ABI Go supports.
const clkTck = 100

// readCPU returns utime+stime of pid in seconds.
func readCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, _ := strconv.ParseFloat(f[11], 64)
	s, _ := strconv.ParseFloat(f[12], 64)
	return (u + s) / clkTck, nil
}

// peakRSSMB returns VmHWM of pid in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// rssMB returns this process's current resident set in MB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssPeak samples this process's RSS at most every 20 ms; the in-process
// workloads call it between operations of the serving phase, so the peak
// covers serving only, not the input generator that ran before it.
type rssPeak struct {
	last time.Time
	max  float64
}

func (p *rssPeak) sample() {
	if now := time.Now(); now.Sub(p.last) >= 20*time.Millisecond {
		p.last = now
		p.max = max(p.max, rssMB())
	}
}

// storeFiles sums a store tree's file sizes: WAL files, checkpoint files
// and everything else (metadata).
type storeFiles struct{ wal, checkpoint, total float64 }

func sizeStoreFiles(root string) (storeFiles, error) {
	var s storeFiles
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n := float64(info.Size())
		s.total += n
		switch name := d.Name(); {
		case strings.Contains(name, ".wal"):
			s.wal += n
		case strings.Contains(name, ".snap."):
			s.checkpoint += n
		}
		return nil
	})
	return s, err
}

// checkpointPath returns the newest checkpoint file of a store directory.
func checkpointPath(dir string) (string, error) {
	m, err := filepath.Glob(filepath.Join(dir, "provgraph.snap.*"))
	if err != nil || len(m) == 0 {
		return "", fmt.Errorf("no checkpoint in %s", dir)
	}
	sort.Strings(m)
	return m[len(m)-1], nil
}
