package capture

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/provgraph"
)

var t0 = time.Date(2008, 11, 1, 9, 0, 0, 0, time.UTC)

// collector gathers events and validates them.
type collector struct {
	events []event.Event
}

func (c *collector) sink(ev *event.Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	c.events = append(c.events, *ev)
	return nil
}

func fixedClock() func() time.Time {
	now := t0
	return func() time.Time {
		now = now.Add(time.Second)
		return now
	}
}

func mustURL(t *testing.T, s string) *url.URL {
	t.Helper()
	u, err := url.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestObserverPlainVisit(t *testing.T) {
	c := &collector{}
	o := NewObserver([]string{"search.example"}, c.sink)
	o.Now = fixedClock()
	o.Observe(Observation{
		URL: mustURL(t, "http://a.example/page"), Status: 200,
		ContentType: "text/html; charset=utf-8", Title: "A Page",
	})
	if len(c.events) != 1 {
		t.Fatalf("events = %d", len(c.events))
	}
	ev := c.events[0]
	if ev.Type != event.TypeVisit || ev.Title != "A Page" || ev.Transition != event.TransTyped {
		t.Fatalf("event = %+v", ev)
	}
}

func TestObserverRefererMakesLink(t *testing.T) {
	c := &collector{}
	o := NewObserver(nil, c.sink)
	o.Now = fixedClock()
	o.Observe(Observation{
		URL: mustURL(t, "http://b.example/"), Referer: "http://a.example/",
		Status: 200, ContentType: "text/html",
	})
	if c.events[0].Transition != event.TransLink || c.events[0].Referrer != "http://a.example/" {
		t.Fatalf("event = %+v", c.events[0])
	}
}

func TestObserverRedirectChain(t *testing.T) {
	c := &collector{}
	o := NewObserver(nil, c.sink)
	o.Now = fixedClock()
	// short -> 302 -> target
	o.Observe(Observation{
		URL: mustURL(t, "http://short.example/x"), Referer: "http://a.example/",
		Status: 302, Location: "http://target.example/landing",
	})
	o.Observe(Observation{
		URL: mustURL(t, "http://target.example/landing"), Status: 200,
		ContentType: "text/html", Title: "Landing",
	})
	if len(c.events) != 2 {
		t.Fatalf("events = %+v", c.events)
	}
	src, dst := c.events[0], c.events[1]
	if src.URL != "http://short.example/x" || src.Transition != event.TransLink {
		t.Fatalf("source visit = %+v", src)
	}
	if dst.Transition != event.TransRedirectTemporary || dst.Referrer != "http://short.example/x" {
		t.Fatalf("target visit = %+v", dst)
	}
}

func TestObserverPermanentRedirect(t *testing.T) {
	c := &collector{}
	o := NewObserver(nil, c.sink)
	o.Now = fixedClock()
	o.Observe(Observation{
		URL: mustURL(t, "http://old.example/"), Status: 301, Location: "/new",
	})
	o.Observe(Observation{
		URL: mustURL(t, "http://old.example/new"), Status: 200, ContentType: "text/html",
	})
	if c.events[1].Transition != event.TransRedirectPermanent {
		t.Fatalf("transition = %v", c.events[1].Transition)
	}
}

func TestObserverRelativeLocationResolved(t *testing.T) {
	c := &collector{}
	o := NewObserver(nil, c.sink)
	o.Now = fixedClock()
	o.Observe(Observation{
		URL: mustURL(t, "http://site.example/a/b"), Status: 302, Location: "../c",
	})
	o.Observe(Observation{
		URL: mustURL(t, "http://site.example/c"), Status: 200, ContentType: "text/html",
	})
	if c.events[1].Transition != event.TransRedirectTemporary {
		t.Fatalf("relative redirect not joined: %+v", c.events[1])
	}
}

func TestObserverSearchDetection(t *testing.T) {
	c := &collector{}
	o := NewObserver([]string{"search.example"}, c.sink)
	o.Now = fixedClock()
	o.Observe(Observation{
		URL: mustURL(t, "http://search.example/?q=rosebud"), Status: 200,
		ContentType: "text/html", Title: "rosebud - Search",
	})
	if len(c.events) != 2 {
		t.Fatalf("events = %+v", c.events)
	}
	if c.events[0].Type != event.TypeSearch || c.events[0].Terms != "rosebud" {
		t.Fatalf("search event = %+v", c.events[0])
	}
	if c.events[1].Type != event.TypeVisit {
		t.Fatalf("visit event = %+v", c.events[1])
	}
	// Non-search host with q param: no search event.
	c.events = nil
	o.Observe(Observation{
		URL: mustURL(t, "http://blog.example/?q=rosebud"), Status: 200,
		ContentType: "text/html",
	})
	if len(c.events) != 1 || c.events[0].Type != event.TypeVisit {
		t.Fatalf("events = %+v", c.events)
	}
}

func TestObserverDownloadByDisposition(t *testing.T) {
	c := &collector{}
	o := NewObserver(nil, c.sink)
	o.Now = fixedClock()
	o.Observe(Observation{
		URL: mustURL(t, "http://files.example/get?id=7"), Referer: "http://a.example/",
		Status: 200, ContentType: "text/plain",
		ContentDisposition: `attachment; filename="notes.txt"`,
	})
	ev := c.events[0]
	if ev.Type != event.TypeDownload || !strings.HasSuffix(ev.SavePath, "notes.txt") {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Referrer != "http://a.example/" {
		t.Fatalf("download referrer = %q", ev.Referrer)
	}
}

func TestObserverDownloadByContentType(t *testing.T) {
	c := &collector{}
	o := NewObserver(nil, c.sink)
	o.Now = fixedClock()
	o.Observe(Observation{
		URL: mustURL(t, "http://files.example/setup.exe"), Status: 200,
		ContentType: "application/octet-stream",
	})
	ev := c.events[0]
	if ev.Type != event.TypeDownload || !strings.HasSuffix(ev.SavePath, "setup.exe") {
		t.Fatalf("event = %+v", ev)
	}
}

func TestObserverSubresourceIsEmbed(t *testing.T) {
	c := &collector{}
	o := NewObserver(nil, c.sink)
	o.Now = fixedClock()
	o.Observe(Observation{
		URL: mustURL(t, "http://cdn.example/app.js"), Referer: "http://a.example/",
		Status: 200, ContentType: "application/javascript",
	})
	if len(c.events) != 1 || c.events[0].Transition != event.TransEmbed {
		t.Fatalf("events = %+v", c.events)
	}
	// Referrer-less subresources are dropped (no provenance to attach).
	c.events = nil
	o.Observe(Observation{
		URL: mustURL(t, "http://cdn.example/other.js"), Status: 200,
		ContentType: "application/javascript",
	})
	if len(c.events) != 0 {
		t.Fatalf("orphan subresource emitted: %+v", c.events)
	}
}

func TestObserverErrorsNotRecorded(t *testing.T) {
	c := &collector{}
	o := NewObserver(nil, c.sink)
	o.Now = fixedClock()
	o.Observe(Observation{URL: mustURL(t, "http://a.example/404"), Status: 404, ContentType: "text/html"})
	if len(c.events) != 0 {
		t.Fatalf("404 recorded: %+v", c.events)
	}
}

func TestExtractTitle(t *testing.T) {
	cases := map[string]string{
		"<html><head><title>Hello</title></head></html>": "Hello",
		"<TITLE>Upper  \n Case</TITLE>":                  "Upper Case",
		"<title lang=\"en\">Attr</title>":                "Attr",
		"no title here":                                  "",
		"<title>unterminated":                            "",
	}
	for in, want := range cases {
		if got := extractTitle([]byte(in)); got != want {
			t.Fatalf("extractTitle(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestProxyEndToEnd runs a real origin server and the proxy, drives a
// redirect-download chain through it with an http.Client, and checks the
// provenance store built from the observed traffic.
func TestProxyEndToEnd(t *testing.T) {
	// Origin site.
	mux := http.NewServeMux()
	var originURL string
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, `<html><head><title>Front Page</title></head><body><a href="/short">go</a></body></html>`)
	})
	mux.HandleFunc("/short", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/landing", http.StatusFound)
	})
	mux.HandleFunc("/landing", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, `<html><head><title>Landing Zone</title></head><body>files</body></html>`)
	})
	mux.HandleFunc("/file.bin", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write([]byte{1, 2, 3, 4})
	})
	origin := httptest.NewServer(mux)
	defer origin.Close()
	originURL = origin.URL

	// Provenance store fed by the observer.
	store, err := provgraph.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	obs := NewObserver(nil, store.Apply)
	obs.Now = fixedClock()

	proxySrv := httptest.NewServer(NewProxy(obs))
	defer proxySrv.Close()
	proxyURL := mustURL(t, proxySrv.URL)

	client := &http.Client{
		Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)},
	}

	get := func(rawurl, referer string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, rawurl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if referer != "" {
			req.Header.Set("Referer", referer)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp
	}

	// Browse: front page, then the shortlink (client follows the 302,
	// sending Referer on the hop), then a download.
	get(originURL+"/", "")
	get(originURL+"/short", originURL+"/")
	get(originURL+"/file.bin", originURL+"/landing")

	st := store.Snapshot().Stats()
	if st.Visits < 3 {
		t.Fatalf("visits = %d, want >= 3 (front, short, landing)", st.Visits)
	}
	if st.Downloads != 1 {
		t.Fatalf("downloads = %d", st.Downloads)
	}
	if obs.Errs() != 0 {
		t.Fatalf("sink errors = %d", obs.Errs())
	}

	// Titles flowed through the proxy sniffer.
	front, ok := store.Snapshot().PageByURL(originURL + "/")
	if !ok || front.Title != "Front Page" {
		t.Fatalf("front page = %+v, ok=%v", front, ok)
	}

	// The redirect edge was reconstructed: landing's visit has a
	// redirect in-edge from /short.
	landing, ok := store.Snapshot().PageByURL(originURL + "/landing")
	if !ok {
		t.Fatal("landing page missing")
	}
	visits := store.Snapshot().VisitsOfPage(landing.ID)
	if len(visits) != 1 {
		t.Fatalf("landing visits = %d", len(visits))
	}
	ins := store.Snapshot().InEdges(visits[0])
	if len(ins) != 1 || !ins[0].Kind.IsAutomatic() {
		t.Fatalf("landing in-edges = %+v", ins)
	}

	// The download node descends from the landing page.
	dls := store.Snapshot().Downloads()
	if len(dls) != 1 {
		t.Fatalf("download nodes = %d", len(dls))
	}
	dlIns := store.Snapshot().InEdges(dls[0])
	if len(dlIns) != 1 {
		t.Fatalf("download in-edges = %+v", dlIns)
	}
	from, _ := store.Snapshot().NodeByID(dlIns[0].From)
	if from.URL != originURL+"/landing" {
		t.Fatalf("download origin = %s", from.URL)
	}
}

func TestProxyRejectsRelativeRequests(t *testing.T) {
	obs := NewObserver(nil)
	p := NewProxy(obs)
	req := httptest.NewRequest(http.MethodGet, "/not-absolute", nil)
	rw := httptest.NewRecorder()
	p.ServeHTTP(rw, req)
	if rw.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rw.Code)
	}
}
