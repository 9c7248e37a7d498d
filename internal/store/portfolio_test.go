package store

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// putMembers persists count member structures under keys m0..m{count-1}
// and returns the keys.
func putMembers(t *testing.T, d *Dir, count int) []string {
	t.Helper()
	_, s := testCircuit(t, 6)
	keys := make([]string, count)
	for i := range keys {
		keys[i] = "m" + string(rune('0'+i))
		if _, err := d.Put(meta(keys[i]), s); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func TestPortfolioRecordGetListDelete(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	members := putMembers(t, d, 3)

	// Recording before members exist must fail.
	if _, err := d.RecordPortfolio(Meta{Key: "p-bad", Members: []string{"absent"}}); err == nil {
		t.Error("RecordPortfolio with an unpersisted member succeeded, want error")
	}
	if _, err := d.RecordPortfolio(Meta{Key: "", Members: members}); err == nil {
		t.Error("RecordPortfolio with an empty key succeeded, want error")
	}
	if _, err := d.RecordPortfolio(Meta{Key: "p-empty"}); err == nil {
		t.Error("RecordPortfolio with no members succeeded, want error")
	}

	rec, err := d.RecordPortfolio(Meta{
		Key: "p1", Circuit: "storetest", Seed: 1,
		Options: `{"circuit":"storetest","portfolio":3}`, Members: members,
		Placements: 18, Coverage: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Created.IsZero() || len(rec.Members) != 3 {
		t.Fatalf("RecordPortfolio did not complete the row: %+v", rec)
	}

	got, ok := d.Stat("p1")
	if !ok || got.Key != "p1" || len(got.Members) != 3 || got.Coverage != 0.25 {
		t.Fatalf("Stat = %+v, %v", got, ok)
	}
	if _, ok := d.Stat("absent"); ok {
		t.Error("Stat found an absent key")
	}
	if list := portfolioRows(d); len(list) != 1 || list[0].Key != "p1" {
		t.Fatalf("portfolio rows = %+v, want the one recorded row", list)
	}

	if err := d.Delete("p1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("p1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Delete: %v, want ErrNotFound", err)
	}
	// Member entries survive a portfolio delete: they are shared entries.
	if _, ok := d.Stat("m0"); !ok {
		t.Error("deleting the portfolio row removed a member entry")
	}
}

// TestPortfolioSurvivesReopen checks portfolio rows round-trip through the
// manifest, and that a row whose member vanished is dropped on Open.
func TestPortfolioSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	members := putMembers(t, d, 3)
	if _, err := d.RecordPortfolio(Meta{Key: "p1", Circuit: "storetest", Members: members}); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d2.Stat("p1")
	if !ok || len(got.Members) != 3 {
		t.Fatalf("reopened store lost the portfolio row: %+v, %v", got, ok)
	}

	// Deleting a member makes the portfolio unservable: the row must go
	// with it, both in memory and across a reopen.
	if err := d2.Delete("m1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Stat("p1"); ok {
		t.Error("portfolio row survived deleting one of its members")
	}
	d3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d3.Stat("p1"); ok {
		t.Error("reopened store resurrected a portfolio with a missing member")
	}
}

// TestOpenDropsCorruptPortfolioRows hand-writes manifests with malformed
// portfolio sections: Open must keep the servable rows and drop the rest,
// never fail or panic.
func TestOpenDropsCorruptPortfolioRows(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	members := putMembers(t, d, 2)
	if _, err := d.RecordPortfolio(Meta{Key: "good", Members: members}); err != nil {
		t.Fatal(err)
	}

	// Splice corrupt rows into the manifest alongside the good one.
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m.Portfolios = append(m.Portfolios,
		Meta{Key: "", Members: members},                            // no key
		Meta{Key: "no-members"},                                    // no members
		Meta{Key: "empty-member", Members: []string{""}},           // empty member key
		Meta{Key: "dangling", Members: []string{"m0", "vanished"}}, // missing member
		Meta{Key: "good2", Members: members, Created: time.Now()},  // servable
	)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), out, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Stat("good"); !ok {
		t.Error("Open dropped a servable portfolio row")
	}
	if _, ok := d2.Stat("good2"); !ok {
		t.Error("Open dropped the second servable portfolio row")
	}
	for _, key := range []string{"", "no-members", "empty-member", "dangling"} {
		if _, ok := d2.Stat(key); ok {
			t.Errorf("Open kept corrupt portfolio row %q", key)
		}
	}
}

// FuzzLoadPortfolio feeds arbitrary bytes to the manifest reader —
// portfolio rows and the legacy portfolios section included — and
// exercises the accessors on whatever Open accepts. Open either errors or
// yields a store whose every row is a file row whose file exists or a
// portfolio row whose members are all file rows; Get and ReadFile on a
// portfolio row return ErrNotFound. Nothing panics.
func FuzzLoadPortfolio(f *testing.F) {
	// Seed with a real manifest carrying entries and a portfolio row.
	seedDir := f.TempDir()
	d, err := Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	c, s := testCircuit(f, 4)
	for _, key := range []string{"m0", "m1"} {
		if _, err := d.Put(meta(key), s); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := d.RecordPortfolio(Meta{Key: "p", Members: []string{"m0", "m1"}}); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(seedDir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	m0 := fileName("m0")
	f.Add([]byte(`{"version":1,"entries":[{"key":"m0","file":"` + m0 + `"}],` +
		`"portfolios":[{"key":"p","members":["m0"],"member_weights":[""]},{"key":"q","members":["p"]}]}`))
	f.Add([]byte(`{"version":2,"entries":[{"key":"p","members":["m0"],"file":"."},{"key":"m0","file":".."}]}`))
	f.Add([]byte(`{"version":1,"portfolios":[{"key":"p","members":["a"]}]}`))
	f.Add([]byte(`{"version":1,"entries":null,"portfolios":null}`))
	f.Add([]byte(`not json`))

	// Structure files referenced by fuzzed manifests: keep the seed
	// entries' files around so rows can resolve.
	files, err := filepath.Glob(filepath.Join(seedDir, "*.mps"))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, src := range files {
			b, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir)
		if err != nil {
			return // rejected: fine, as long as nothing panicked
		}
		for _, m := range d.List() {
			if got, ok := d.Stat(m.Key); !ok || m.Key == "" || got.Key != m.Key {
				t.Fatalf("listed row %q not statable", m.Key)
			}
			if len(m.Members) == 0 {
				fi, err := os.Stat(filepath.Join(dir, m.File))
				if m.File == "" || err != nil || !fi.Mode().IsRegular() {
					t.Fatalf("Open kept file row %+v without its file", m)
				}
				continue
			}
			if m.File != "" {
				t.Fatalf("Open kept row %+v with both a file and members", m)
			}
			for _, member := range m.Members {
				if e, _ := d.Stat(member); e.File == "" {
					t.Fatalf("portfolio %q member %q is not a file row", m.Key, member)
				}
			}
			if _, _, err := d.Get(m.Key, c); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get on portfolio row %q: %v, want ErrNotFound", m.Key, err)
			}
			if _, _, err := d.ReadFile(m.Key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("ReadFile on portfolio row %q: %v, want ErrNotFound", m.Key, err)
			}
		}
	})
}

// portfolioRows returns d's portfolio rows (rows listing members), newest
// first.
func portfolioRows(d *Dir) []Meta {
	var rows []Meta
	for _, m := range d.List() {
		if len(m.Members) > 0 {
			rows = append(rows, m)
		}
	}
	return rows
}

// TestOpenLegacyManifest opens a manifest in the version 1 format —
// portfolio rows in their own section, with member weight keys — and
// checks it loads to the same rows: the file rows, and the portfolio row
// with every recorded field. A key present in both sections keeps its
// file row, and a portfolio row listing another portfolio row is dropped.
func TestOpenLegacyManifest(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	putMembers(t, d, 2)
	m0, m1 := fileName("m0"), fileName("m1")
	legacy := `{
  "version": 1,
  "entries": [
    {"key": "m0", "circuit": "storetest", "seed": 1, "options": "{\"circuit\":\"storetest\"}",
     "placements": 6, "coverage": 0.125, "bytes": 100, "created": "2025-01-02T03:04:05Z", "file": "` + m0 + `"},
    {"key": "m1", "circuit": "storetest", "seed": 1, "placements": 6, "bytes": 100,
     "created": "2025-01-02T03:04:06Z", "file": "` + m1 + `"}
  ],
  "portfolios": [
    {"key": "p", "circuit": "storetest", "seed": 7, "options": "{\"portfolio\":2}",
     "members": ["m0", "m1"], "member_weights": ["0,1,0", "1,0,0"],
     "placements": 12, "coverage": 0.25, "created": "2025-01-02T03:04:07Z"},
    {"key": "m1", "circuit": "storetest", "members": ["m0"], "created": "2025-01-02T03:04:08Z"},
    {"key": "nested", "circuit": "storetest", "members": ["p"], "created": "2025-01-02T03:04:09Z"}
  ]
}`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []Meta{
		{Key: "p", Circuit: "storetest", Seed: 7, Options: `{"portfolio":2}`, Members: []string{"m0", "m1"},
			Placements: 12, Coverage: 0.25, Created: time.Date(2025, 1, 2, 3, 4, 7, 0, time.UTC)},
		{Key: "m1", Circuit: "storetest", Seed: 1, Placements: 6, Bytes: 100,
			Created: time.Date(2025, 1, 2, 3, 4, 6, 0, time.UTC), File: m1},
		{Key: "m0", Circuit: "storetest", Seed: 1, Options: `{"circuit":"storetest"}`, Placements: 6,
			Coverage: 0.125, Bytes: 100, Created: time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC), File: m0},
	}
	assertRows(t, d2, want)

	// The next write rewrites the manifest in the current format; a
	// reopen still yields the same rows.
	if err := d2.Delete("nested"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete of the dropped nested row: %v, want ErrNotFound", err)
	}
	if _, err := d2.RecordPortfolio(want[0]); err != nil {
		t.Fatal(err)
	}
	d3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, d3, want)
}

// assertRows checks d lists exactly want, field for field.
func assertRows(t *testing.T, d *Dir, want []Meta) {
	t.Helper()
	got, err := json.Marshal(d.List())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(exp) {
		t.Fatalf("rows:\n got %s\nwant %s", got, exp)
	}
}

// TestPortfolioRowHasNoFile: Get and ReadFile on a portfolio row report
// ErrNotFound — the row has no file, and the store directory itself
// (what an empty filename joins to) must never be opened in its place.
// Open likewise drops rows naming the directory as their file.
func TestPortfolioRowHasNoFile(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	members := putMembers(t, d, 2)
	if _, err := d.RecordPortfolio(Meta{Key: "p", Members: members}); err != nil {
		t.Fatal(err)
	}
	c, _ := testCircuit(t, 6)
	if _, _, err := d.Get("p", c); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on a portfolio row: %v, want ErrNotFound", err)
	}
	if _, _, err := d.ReadFile("p"); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadFile on a portfolio row: %v, want ErrNotFound", err)
	}
	// A portfolio row cannot overwrite a structure or name a file.
	if _, err := d.RecordPortfolio(Meta{Key: "m0", Members: []string{"m1"}}); err == nil {
		t.Error("RecordPortfolio over a file row succeeded, want error")
	}
	if _, err := d.RecordPortfolio(Meta{Key: "q", Members: members, File: "x.mps"}); err == nil {
		t.Error("RecordPortfolio with a file succeeded, want error")
	}
	if _, err := d.RecordPortfolio(Meta{Key: "q", Members: []string{"p"}}); err == nil {
		t.Error("RecordPortfolio listing a portfolio row succeeded, want error")
	}

	dirRows := `{"version":2,"entries":[{"key":"a","file":"."},{"key":"b","file":".."}]}`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(dirRows), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rows := d2.List(); len(rows) != 0 {
		t.Fatalf("Open kept rows naming directories: %+v", rows)
	}
}

// TestNonFiniteCoverageRejected: a NaN or Inf coverage cannot be encoded
// in the JSON manifest, so Put and RecordPortfolio refuse it before it
// reaches the row map — where it would fail every later manifest rewrite.
// A later write persists and survives a reopen.
func TestNonFiniteCoverageRejected(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	members := putMembers(t, d, 2)
	_, s := testCircuit(t, 6)
	for _, cov := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := meta("bad")
		bad.Coverage = cov
		if _, err := d.Put(bad, s); err == nil {
			t.Errorf("Put with coverage %v succeeded, want error", cov)
		}
		if _, err := d.RecordPortfolio(Meta{Key: "bad-p", Members: members, Coverage: cov}); err == nil {
			t.Errorf("RecordPortfolio with coverage %v succeeded, want error", cov)
		}
	}
	if _, ok := d.Stat("bad"); ok {
		t.Fatal("rejected Put left its row behind")
	}
	if _, err := d.Put(meta("later"), s); err != nil {
		t.Fatalf("Put after the rejected rows: %v", err)
	}
	if _, err := d.RecordPortfolio(Meta{Key: "later-p", Members: members, Coverage: 0.5}); err != nil {
		t.Fatalf("RecordPortfolio after the rejected rows: %v", err)
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"later", "later-p"} {
		if _, ok := d2.Stat(key); !ok {
			t.Errorf("%s missing after reopen", key)
		}
	}
}

// TestConcurrentPutRecordDelete races Put, RecordPortfolio and Delete over
// shared keys in short rounds. After each round every file row's file
// exists, every portfolio row's members are live file rows, and a reopen
// yields the same rows.
func TestConcurrentPutRecordDelete(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, s := testCircuit(t, 4)
	keys := []string{"m0", "m1", "m2"}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					// Goroutines g and g+3 share a key and run different
					// operations on it at every step.
					key := keys[(g+round)%len(keys)]
					switch (g/len(keys) + i + round) % 3 {
					case 0:
						if _, err := d.Put(meta(key), s); err != nil {
							t.Error(err)
						}
					case 1:
						// Fails when a member is absent; the race is the point.
						d.RecordPortfolio(Meta{Key: "p" + key, Members: []string{key, keys[(g+i+1)%len(keys)]}})
					default:
						d.Delete(key)
					}
				}
			}(g)
		}
		wg.Wait()

		for _, m := range d.List() {
			if len(m.Members) == 0 {
				if _, err := os.Stat(filepath.Join(dir, m.File)); err != nil {
					t.Fatalf("round %d: file row %q lost its file: %v", round, m.Key, err)
				}
			}
			for _, member := range m.Members {
				if e, ok := d.Stat(member); !ok || e.File == "" {
					t.Fatalf("round %d: portfolio %q lists %q, not a live file row", round, m.Key, member)
				}
			}
		}
		d2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		assertRows(t, d2, d.List())
	}
}
