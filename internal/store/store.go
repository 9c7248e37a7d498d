// Package store implements the disk-backed structure repository behind the
// paper's "generate once, instantiate forever" premise (Fig. 1): generated
// multi-placement structures outlive the process that paid for them. A Dir
// holds one structure file per canonical (circuit, seed, options) key —
// written atomically in the v3 binary format (internal/core/codec.go:
// placements plus the compiled query index's tables) —
// plus a rewritable JSON manifest recording circuit, seed, options,
// placement count, byte size, and creation time.
//
// The manifest has one row type, Meta. A row either names a structure
// file (File) or is a portfolio row listing its K member keys in routing
// order (Members). Members are ordinary file rows — shared with identical
// single-structure specs, never copied — so recording a portfolio costs
// one manifest rewrite, and a portfolio row never outlives a member: Delete
// drops it with the member, and Open drops any whose members are not all
// file rows.
//
// internal/serve uses a Dir as a write-through layer under its LRU cache:
// finished generations are persisted in the background, cache misses
// consult the store before paying for an annealing run, and mpsd
// warm-starts from the newest rows at boot.
//
// A Dir is safe for concurrent use. Corrupt files are detected on Get (the
// file checksum plus core.Load's semantic validation) and reported, never
// silently repaired.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mps/internal/core"
	"mps/internal/netlist"
)

// ErrNotFound reports a key with no persisted structure.
var ErrNotFound = errors.New("store: structure not found")

// manifestName is the index file inside a store directory.
const manifestName = "manifest.json"

// Meta is one manifest row: everything a server needs to list or reload a
// persisted structure or portfolio without opening a file.
type Meta struct {
	// Key is the canonical (circuit, seed, options) cache key.
	Key string `json:"key"`
	// Circuit and Seed identify the generation inputs; Options carries the
	// caller's full canonical spec (serve stores the normalized
	// GenerateSpec as JSON) so a restarted server can rebuild cache
	// entries from the manifest alone.
	Circuit string `json:"circuit"`
	Seed    int64  `json:"seed"`
	Options string `json:"options,omitempty"`
	// Placements and Coverage snapshot the artifact at persist time; a
	// portfolio row records summed placements and merged coverage.
	Placements int     `json:"placements"`
	Coverage   float64 `json:"coverage,omitempty"`
	// Bytes is the structure file's size; Created its persist time (UTC).
	Bytes   int64     `json:"bytes"`
	Created time.Time `json:"created"`
	// File is the structure's filename inside the store directory, empty
	// on a portfolio row.
	File string `json:"file,omitempty"`
	// Members lists a portfolio row's member keys in routing order (member
	// 0 first — the order is part of the portfolio's semantics); each is a
	// file row. Empty on a file row.
	Members []string `json:"members,omitempty"`
}

// manifest is the on-disk index. Version 2 keeps portfolio rows in
// Entries; version 1 kept them in a separate Portfolios section, which
// Open still reads (its extra member_weights field is ignored) and no
// write produces.
type manifest struct {
	Version    int    `json:"version"`
	Entries    []Meta `json:"entries"`
	Portfolios []Meta `json:"portfolios,omitempty"`
}

// Dir is a disk-backed structure repository rooted at one directory.
type Dir struct {
	root string

	// mu guards entries and is held only for map access, never across
	// disk I/O, so reads (Stat/List — the serve read-through's first stop)
	// never stall behind an fsyncing writer.
	mu      sync.Mutex
	entries map[string]Meta

	// writeMu serializes mutations — Put, RecordPortfolio, Delete — file
	// I/O and manifest rewrite included, so a row and its file always
	// agree and the last manifest written reflects every earlier mutation.
	writeMu sync.Mutex
}

// Open opens (creating if needed) a store directory and loads its
// manifest. File rows whose structure file has gone missing are dropped,
// then portfolio rows whose members are not all file rows, and temp files
// left by crashed writers are swept, so Open always yields a servable view
// of what is actually on disk.
func Open(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Dir{root: root, entries: map[string]Meta{}}
	if stale, err := filepath.Glob(filepath.Join(root, tmpPrefix+"*")); err == nil {
		for _, f := range stale {
			os.Remove(f)
		}
	}
	data, err := os.ReadFile(filepath.Join(root, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return d, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: corrupt manifest in %s: %w", root, err)
	}
	// File rows load first, so portfolio rows can check their members and
	// a key present in both sections keeps its file row.
	rows := append(m.Entries, m.Portfolios...)
	for _, e := range rows {
		if d.fileRowLive(e) {
			d.entries[e.Key] = e
		}
	}
	for _, e := range rows {
		if _, dup := d.entries[e.Key]; !dup && d.memberRowErr(e) == nil {
			d.entries[e.Key] = e
		}
	}
	return d, nil
}

// fileRowLive reports whether e is a well-formed file row whose structure
// file is a regular file inside the store directory.
func (d *Dir) fileRowLive(e Meta) bool {
	if e.Key == "" || e.File == "" || len(e.Members) != 0 || strings.ContainsAny(e.File, "/\\") {
		return false
	}
	fi, err := os.Stat(filepath.Join(d.root, e.File))
	return err == nil && fi.Mode().IsRegular()
}

// memberRowErr reports why e is not a servable portfolio row: every
// member must be a file row already in entries. Callers hold mu (or own
// the Dir, as Open does).
func (d *Dir) memberRowErr(e Meta) error {
	if e.Key == "" || len(e.Members) == 0 || e.File != "" {
		return fmt.Errorf("store: portfolio row %q needs a key and members and no file", e.Key)
	}
	for _, key := range e.Members {
		if d.entries[key].File == "" {
			return fmt.Errorf("store: portfolio %q member %q is not a persisted structure (persist members first)", e.Key, key)
		}
	}
	return nil
}

// checkRow rejects rows the manifest cannot hold: an empty key, or a
// non-finite coverage, which JSON cannot encode — one such row would fail
// every later manifest rewrite.
func checkRow(meta Meta) error {
	if meta.Key == "" {
		return fmt.Errorf("store: empty key")
	}
	if math.IsNaN(meta.Coverage) || math.IsInf(meta.Coverage, 0) {
		return fmt.Errorf("store: non-finite coverage %v for key %q", meta.Coverage, meta.Key)
	}
	return nil
}

// Root returns the directory the store lives in.
func (d *Dir) Root() string { return d.root }

// Len returns the number of persisted structures (file rows).
func (d *Dir) Len() int { return d.Stats().Entries }

// Stats is a scrape-time snapshot of the store's footprint, shaped for
// gauge export.
type Stats struct {
	// Entries counts file rows and Portfolios portfolio rows.
	Entries    int
	Portfolios int
	// Bytes is the summed size of all persisted structure files, from the
	// manifest rows (no disk walk).
	Bytes int64
}

// Stats returns the current footprint. It reads only the in-memory
// manifest map, so it is cheap enough for every metrics scrape.
func (d *Dir) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	var st Stats
	for _, e := range d.entries {
		if len(e.Members) != 0 {
			st.Portfolios++
			continue
		}
		st.Entries++
		st.Bytes += e.Bytes
	}
	return st
}

// Put persists the structure under meta.Key as a file row, overwriting any
// previous row for that key. The structure file is written atomically
// before the manifest row lands, so a crash between the two leaves at
// worst an unreferenced file that the next Put for the key reuses. Meta's
// File, Bytes, and (when zero) Created and Placements fields are filled
// in; the completed row is returned.
func (d *Dir) Put(meta Meta, s *core.Structure) (Meta, error) {
	if err := checkRow(meta); err != nil {
		return Meta{}, err
	}
	if s == nil || len(meta.Members) != 0 {
		return Meta{}, fmt.Errorf("store: Put for key %q needs a structure and no members", meta.Key)
	}
	meta.File = fileName(meta.Key)
	if meta.Created.IsZero() {
		meta.Created = time.Now().UTC()
	}
	if meta.Placements == 0 {
		meta.Placements = s.NumPlacements()
	}

	// Structures persist in the v3 format — placements plus the compiled
	// query index's row tables — so whoever loads the file next (a
	// warm-starting daemon) gets the flat index without a compile on its
	// request path.
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	n, err := WriteFileAtomic(filepath.Join(d.root, meta.File), s.SaveBinaryCompiled)
	if err != nil {
		return Meta{}, fmt.Errorf("store: %w", err)
	}
	meta.Bytes = n
	d.mu.Lock()
	d.entries[meta.Key] = meta
	d.mu.Unlock()
	if err := d.saveManifest(); err != nil {
		return Meta{}, err
	}
	return meta, nil
}

// Get loads the persisted structure for key. The circuit must be the
// topology the structure was generated for; decoding and validation go
// through core.Load, so checksum or semantic corruption surfaces as an
// error here rather than as wrong placements later.
func (d *Dir) Get(key string, c *netlist.Circuit) (*core.Structure, Meta, error) {
	meta, err := d.fileRow(key)
	if err != nil {
		return nil, Meta{}, err
	}
	f, err := os.Open(filepath.Join(d.root, meta.File))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	s, err := core.Load(f, c)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("store: loading %s: %w", meta.File, err)
	}
	return s, meta, nil
}

// Stat returns the manifest row for key — a file row or a portfolio row —
// without touching any file.
func (d *Dir) Stat(key string) (Meta, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	meta, ok := d.entries[key]
	return meta, ok
}

// fileRow returns key's row if it names a structure file; a portfolio row
// has no file, so it is ErrNotFound here like an absent key.
func (d *Dir) fileRow(key string) (Meta, error) {
	meta, ok := d.Stat(key)
	if !ok || meta.File == "" {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return meta, nil
}

// List returns all manifest rows, file and portfolio rows alike, newest
// first (ties broken by key so the order is deterministic).
func (d *Dir) List() []Meta {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Meta, 0, len(d.entries))
	for _, m := range d.entries {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.After(out[j].Created)
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// ReadFile returns the raw persisted bytes for key's structure file plus
// its manifest row — the transfer primitive behind cluster rebalance and
// peer fetches, where the v3 file moves between nodes verbatim (the
// receiver revalidates through core.Load, so no trust rides on the
// bytes).
func (d *Dir) ReadFile(key string) ([]byte, Meta, error) {
	meta, err := d.fileRow(key)
	if err != nil {
		return nil, Meta{}, err
	}
	data, err := os.ReadFile(filepath.Join(d.root, meta.File))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("store: %w", err)
	}
	return data, meta, nil
}

// Delete removes key's row and, for a file row, its structure file.
// Portfolio rows listing a deleted file row as a member become unservable
// and are dropped in the same manifest rewrite; deleting a portfolio row
// leaves its members, which are shared file rows. Deleting an absent key
// returns ErrNotFound.
func (d *Dir) Delete(key string) error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	d.mu.Lock()
	meta, ok := d.entries[key]
	delete(d.entries, key)
	for k, e := range d.entries {
		if slices.Contains(e.Members, key) {
			delete(d.entries, k)
		}
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if meta.File != "" {
		if err := os.Remove(filepath.Join(d.root, meta.File)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: %w", err)
		}
	}
	return d.saveManifest()
}

// RecordPortfolio records (or overwrites) a portfolio row: meta with
// Members set and no File. Every member must already be a file row, so a
// recorded portfolio is always servable, and the key must not hold a
// structure. Created is filled in when zero; the completed row is
// returned.
func (d *Dir) RecordPortfolio(meta Meta) (Meta, error) {
	if err := checkRow(meta); err != nil {
		return Meta{}, err
	}
	if meta.Created.IsZero() {
		meta.Created = time.Now().UTC()
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	d.mu.Lock()
	err := d.memberRowErr(meta)
	if d.entries[meta.Key].File != "" {
		err = fmt.Errorf("store: key %q holds a structure, not a portfolio", meta.Key)
	}
	if err == nil {
		d.entries[meta.Key] = meta
	}
	d.mu.Unlock()
	if err != nil {
		return Meta{}, err
	}
	if err := d.saveManifest(); err != nil {
		return Meta{}, err
	}
	return meta, nil
}

// saveManifest rewrites the manifest atomically. Callers hold writeMu, so
// whichever write lands last carries every mutation that preceded it.
func (d *Dir) saveManifest() error {
	d.mu.Lock()
	m := manifest{Version: 2, Entries: make([]Meta, 0, len(d.entries))}
	for _, e := range d.entries {
		m.Entries = append(m.Entries, e)
	}
	d.mu.Unlock()
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Key < m.Entries[j].Key })
	_, err := WriteFileAtomic(filepath.Join(d.root, manifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// fileName derives a filesystem-safe, collision-resistant filename from a
// cache key (keys contain '|' and '=' and can exceed name length limits).
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8]) + ".mps"
}
