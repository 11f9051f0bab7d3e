package places

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/storage"
)

var t0 = time.Date(2008, 11, 1, 9, 0, 0, 0, time.UTC) // start of the paper's 79-day window

func visit(url, title, ref string, tr event.Transition, at time.Time) *event.Event {
	return &event.Event{
		Time: at, Type: event.TypeVisit, URL: url, Title: title,
		Referrer: ref, Transition: tr,
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestVisitCreatesPlaceAndVisit(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	if err := s.Apply(visit("http://a.example/", "A page", "", event.TransTyped, t0)); err != nil {
		t.Fatal(err)
	}
	p, ok := s.PlaceByURL("http://a.example/")
	if !ok {
		t.Fatal("place missing")
	}
	if p.Title != "A page" || p.VisitCount != 1 || p.Typed != 1 {
		t.Fatalf("place = %+v", p)
	}
	vs := s.VisitsOfPlace(p.ID)
	if len(vs) != 1 || vs[0].Type != event.TransTyped || vs[0].FromVisit != 0 {
		t.Fatalf("visits = %+v", vs)
	}
}

func TestRepeatVisitsShareAPlace(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Apply(visit("http://a.example/", "A", "", event.TransLink, t0.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := s.PlaceByURL("http://a.example/")
	if p.VisitCount != 5 {
		t.Fatalf("VisitCount = %d, want 5", p.VisitCount)
	}
	if got := s.Stats(); got.Places != 1 || got.Visits != 5 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestFromVisitChainsThroughReferrer(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Apply(visit("http://a.example/", "A", "", event.TransTyped, t0)))
	must(s.Apply(visit("http://b.example/", "B", "http://a.example/", event.TransLink, t0.Add(time.Minute))))
	pb, _ := s.PlaceByURL("http://b.example/")
	vb := s.VisitsOfPlace(pb.ID)[0]
	if vb.FromVisit == 0 {
		t.Fatal("link visit has no from_visit")
	}
	from, ok := s.VisitByID(vb.FromVisit)
	if !ok {
		t.Fatal("from visit missing")
	}
	pa, _ := s.PlaceByURL("http://a.example/")
	if from.Place != pa.ID {
		t.Fatalf("from visit is of place %d, want %d", from.Place, pa.ID)
	}
}

// TestTypedNavigationLosesRelationship pins down the information loss the
// paper complains about (§3.2): Places does not chain typed navigations
// to the page the user was on.
func TestTypedNavigationLosesRelationship(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	if err := s.Apply(visit("http://a.example/", "A", "", event.TransTyped, t0)); err != nil {
		t.Fatal(err)
	}
	// User is on A and types B's URL: referrer is present in the event,
	// but Places drops the relationship.
	if err := s.Apply(visit("http://b.example/", "B", "http://a.example/", event.TransTyped, t0.Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
	pb, _ := s.PlaceByURL("http://b.example/")
	if v := s.VisitsOfPlace(pb.ID)[0]; v.FromVisit != 0 {
		t.Fatalf("typed visit has from_visit=%d; Places should record none", v.FromVisit)
	}
}

func TestCloseAndTabOpenNotRecorded(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	if err := s.Apply(&event.Event{Time: t0, Type: event.TypeClose, URL: "http://a.example/"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(&event.Event{Time: t0, Type: event.TypeTabOpen, URL: "http://a.example/"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got != (Stats{}) {
		t.Fatalf("stats = %+v, want empty (Places ignores close/tab-open)", got)
	}
}

func TestBookmarkRows(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	if err := s.Apply(&event.Event{Time: t0, Type: event.TypeBookmarkAdd, URL: "http://a.example/", Title: "A!"}); err != nil {
		t.Fatal(err)
	}
	bs := s.Bookmarks()
	if len(bs) != 1 || bs[0].Title != "A!" {
		t.Fatalf("bookmarks = %+v", bs)
	}
	if _, ok := s.PlaceByURL("http://a.example/"); !ok {
		t.Fatal("bookmark did not create a place row")
	}
}

func TestDownloadStoredAsAnnotations(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	err := s.Apply(&event.Event{
		Time: t0, Type: event.TypeDownload,
		URL: "http://files.example/setup.exe", SavePath: "/home/u/setup.exe",
		ContentType: "application/octet-stream",
	})
	if err != nil {
		t.Fatal(err)
	}
	annos := s.Annos()
	if len(annos) != 2 {
		t.Fatalf("annos = %d rows, want 2 (dest + mime)", len(annos))
	}
	if annos[0].Name != AnnoDownloadDest || annos[0].Content != "/home/u/setup.exe" {
		t.Fatalf("anno[0] = %+v", annos[0])
	}
}

func TestInputHistoryUseCount(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	for i := 0; i < 3; i++ {
		err := s.Apply(&event.Event{
			Time: t0.Add(time.Duration(i) * time.Hour), Type: event.TypeSearch,
			URL: "http://search.example/?q=rosebud", Terms: "rosebud",
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ins := s.Inputs()
	if len(ins) != 1 || ins[0].UseCount != 3 {
		t.Fatalf("inputs = %+v", ins)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Apply(visit("http://a.example/", "A", "", event.TransTyped, t0)))
	must(s.Apply(visit("http://b.example/", "B", "http://a.example/", event.TransLink, t0.Add(time.Minute))))
	must(s.Apply(&event.Event{Time: t0, Type: event.TypeBookmarkAdd, URL: "http://a.example/", Title: "A"}))
	statsBefore := s.Stats()
	must(s.Close())

	s2 := openStore(t, dir)
	defer s2.Close()
	if s2.Stats() != statsBefore {
		t.Fatalf("stats after reopen = %+v, want %+v", s2.Stats(), statsBefore)
	}
	pb, ok := s2.PlaceByURL("http://b.example/")
	if !ok {
		t.Fatal("place b missing after reopen")
	}
	if v := s2.VisitsOfPlace(pb.ID)[0]; v.FromVisit == 0 {
		t.Fatal("from_visit lost across reopen")
	}
}

func TestPersistenceAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		must(s.Apply(visit(fmt.Sprintf("http://site%d.example/", i%20), fmt.Sprintf("Site %d", i%20), "", event.TransLink, t0.Add(time.Duration(i)*time.Minute))))
	}
	must(s.Checkpoint())
	// Post-checkpoint activity exercises snapshot + WAL recovery.
	for i := 0; i < 50; i++ {
		must(s.Apply(visit("http://late.example/", "Late", "", event.TransTyped, t0.Add(time.Duration(200+i)*time.Minute))))
	}
	want := s.Stats()
	must(s.Close())

	s2 := openStore(t, dir)
	defer s2.Close()
	if s2.Stats() != want {
		t.Fatalf("stats = %+v, want %+v", s2.Stats(), want)
	}
	p, _ := s2.PlaceByURL("http://late.example/")
	if p.VisitCount != 50 {
		t.Fatalf("late VisitCount = %d, want 50", p.VisitCount)
	}
	// ID counters must continue without collision.
	must(s2.Apply(visit("http://new.example/", "New", "", event.TransTyped, t0.Add(300*time.Minute))))
	pNew, _ := s2.PlaceByURL("http://new.example/")
	if pNew.ID <= p.ID {
		t.Fatalf("new place ID %d not past old %d", pNew.ID, p.ID)
	}
}

func TestRevHost(t *testing.T) {
	cases := map[string]string{
		"http://www.example.com/path?q=1": "moc.elpmaxe.www.",
		"https://a.b.c/":                  "c.b.a.",
		"nohost":                          "tsohon.",
	}
	for in, want := range cases {
		if got := revHost(in); got != want {
			t.Fatalf("revHost(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestInvalidEventRejected(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	if err := s.Apply(&event.Event{Type: event.TypeVisit, URL: "http://x/"}); err == nil {
		t.Fatal("zero-time event accepted")
	}
	if err := s.Apply(&event.Event{Time: t0, Type: event.TypeVisit}); err == nil {
		t.Fatal("URL-less visit accepted")
	}
	if err := s.Apply(&event.Event{Time: t0, Type: event.TypeDownload, URL: "http://x/"}); err == nil {
		t.Fatal("download without save path accepted")
	}
}

func TestSizeOnDiskGrows(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	before := s.SizeOnDisk()
	for i := 0; i < 100; i++ {
		if err := s.Apply(visit(fmt.Sprintf("http://s%d.example/", i), "t", "", event.TransLink, t0)); err != nil {
			t.Fatal(err)
		}
	}
	if after := s.SizeOnDisk(); after <= before {
		t.Fatalf("SizeOnDisk %d -> %d; expected growth", before, after)
	}
}

// TestOpenRefusesHeapCheckpoint: a Places directory whose checkpoint is
// a heap file of the store's records (what older releases wrote) fails
// to open with ErrBadVersion and leaves every file as it was.
func TestOpenRefusesHeapCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for i := 0; i < 50; i++ {
		if err := s.Apply(visit(fmt.Sprintf("http://p%d.example/", i%7), "P", "", event.TransLink, t0.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(visit("http://tail.example/", "Tail", "", event.TransTyped, t0.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	h, err := storage.CreateHeapFile(filepath.Join(dir, "places.snap.000001"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.writeRecords(h.Append); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	before := dirFiles(t, dir)
	if re, err := Open(dir); !errors.Is(err, storage.ErrBadVersion) {
		if err == nil {
			re.Close()
		}
		t.Fatalf("Open err = %v, want ErrBadVersion", err)
	}
	after := dirFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("refused open changed the file set: %d -> %d files", len(before), len(after))
	}
	for name, b := range before {
		if after[name] != b {
			t.Fatalf("refused open changed %s", name)
		}
	}
}

// dirFiles reads every file in dir, keyed by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}
