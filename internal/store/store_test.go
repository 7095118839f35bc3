package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testManifest() Manifest {
	return Manifest{
		Fingerprint: Fingerprint{Seed: 5, MinTS: 100, MaxTS: 900, Datasets: []string{"taxi", "weather"}},
		ClauseSig:   "alpha=0.05",
	}
}

func testSections() []Section {
	return []Section{
		{Name: SectionIndex, Data: bytes.Repeat([]byte{0xAB, 0x01, 0x7F}, 333)},
		{Name: SectionGraph, Data: []byte("graph-payload")},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	m, secs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.FormatVersion != FormatVersion {
		t.Errorf("manifest version = %d, want %d", m.FormatVersion, FormatVersion)
	}
	fp := m.Fingerprint
	if fp.Seed != 5 || fp.MinTS != 100 || fp.MaxTS != 900 || len(fp.Datasets) != 2 {
		t.Errorf("fingerprint = %+v", fp)
	}
	if m.ClauseSig != "alpha=0.05" {
		t.Errorf("clause sig = %q", m.ClauseSig)
	}
	if len(m.Sections) != 2 || m.Sections[0].Name != SectionIndex || m.Sections[1].Name != SectionGraph {
		t.Fatalf("section table = %+v", m.Sections)
	}
	for _, want := range testSections() {
		if !bytes.Equal(secs[want.Name], want.Data) {
			t.Errorf("section %q payload differs after round trip", want.Name)
		}
	}
	// ReadManifest sees the same manifest without touching payloads.
	m2, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ClauseSig != m.ClauseSig || len(m2.Sections) != len(m.Sections) {
		t.Errorf("ReadManifest = %+v, Read manifest = %+v", m2, m)
	}
}

func TestWriteReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	next := []Section{{Name: SectionIndex, Data: []byte("second generation")}}
	if err := Write(path, testManifest(), next); err != nil {
		t.Fatal(err)
	}
	_, secs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(secs[SectionIndex]) != "second generation" {
		t.Errorf("rewrite not visible: %q", secs[SectionIndex])
	}
	if _, ok := secs[SectionGraph]; ok {
		t.Error("stale graph section survived rewrite")
	}
	// No temp-file droppings in the directory.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after two writes, want 1", len(entries))
	}
}

// TestCrashBeforeRenameLeavesPreviousSnapshot simulates a crash mid-save:
// a new container is fully staged in a temp file, but the process dies
// before the rename. The previous snapshot must stay loadable.
func TestCrashBeforeRenameLeavesPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	// Stage the second generation without publishing it — everything Write
	// does except the final os.Rename.
	tmp, err := os.CreateTemp(dir, "corpus.snap.tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeContainer(tmp, testManifest(), []Section{{Name: SectionIndex, Data: []byte("half-baked")}}); err != nil {
		t.Fatal(err)
	}
	tmp.Close() // crash here: rename never happens

	_, secs, err := Read(path)
	if err != nil {
		t.Fatalf("previous snapshot unreadable after simulated crash: %v", err)
	}
	if !bytes.Equal(secs[SectionIndex], testSections()[0].Data) {
		t.Error("previous snapshot's index section changed after simulated crash")
	}
}

func TestWriteFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	// Writing over a path whose "file" is a directory fails at rename time;
	// the staged temp file must be cleaned up.
	path := filepath.Join(dir, "occupied")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, testManifest(), testSections()); err == nil {
		t.Fatal("Write over a directory should fail")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp file leaked: directory holds %d entries, want 1", len(entries))
	}
}

func TestReadRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte("DPOL")},
		{"foreign", []byte("#!/bin/sh\necho this is not a snapshot at all\n")},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Read(path); !errors.Is(err, ErrNotSnapshot) {
			t.Errorf("%s: err = %v, want ErrNotSnapshot", tc.name, err)
		}
	}
}

func TestReadRejectsFutureVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 0xFF // bump the version field
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(path); !errors.Is(err, ErrVersion) {
		t.Errorf("err = %v, want ErrVersion", err)
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last section: the error must name it.
	cut := filepath.Join(dir, "cut.snap")
	if err := os.WriteFile(cut, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Read(cut)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated section: err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), SectionGraph) {
		t.Errorf("truncation error does not name the damaged section: %v", err)
	}
	// Cut into the manifest itself.
	if err := os.WriteFile(cut, data[:20], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(cut); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated manifest: err = %v, want ErrCorrupt", err)
	}
}

func TestReadRejectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the first section's payload (the last len(graph)+
	// len(index) bytes of the file are the payloads, index first).
	payloadStart := len(data) - len(testSections()[0].Data) - len(testSections()[1].Data)
	flip := filepath.Join(dir, "flip.snap")
	data[payloadStart+7] ^= 0x10
	if err := os.WriteFile(flip, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Read(flip)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), SectionIndex) || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("bit-flip error does not name the damaged section: %v", err)
	}
}

func TestReadRejectsTrailingGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := Write(path, testManifest(), testSections()); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("junk")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := Read(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing garbage: err = %v, want ErrCorrupt", err)
	}
}

// TestWriteDoesNotMutateCallerManifest is the regression test for a
// slice-aliasing bug: writeContainer used to truncate-and-append over the
// caller's Manifest.Sections backing array, silently rewriting the
// caller's own section table.
func TestWriteDoesNotMutateCallerManifest(t *testing.T) {
	m := testManifest()
	// A pre-populated table with spare capacity, exactly the shape the bug
	// needed: len < cap, so in-place appends overwrite live entries.
	m.Sections = append(make([]SectionInfo, 0, 8),
		SectionInfo{Name: "caller-owned", Length: 123, CRC: 0xDEAD})
	want := append([]SectionInfo(nil), m.Sections...)

	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := Write(path, m, testSections()); err != nil {
		t.Fatal(err)
	}
	if len(m.Sections) != len(want) || m.Sections[0] != want[0] {
		t.Errorf("Write mutated the caller's manifest sections: %+v, want %+v", m.Sections, want)
	}
	// And the written container carries the real table, not the caller's.
	rm, _, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.Sections) != 2 || rm.Sections[0].Name != SectionIndex {
		t.Errorf("written section table = %+v", rm.Sections)
	}
}

// TestReadRejectsPreFlatContainers is the upgrade contract: containers
// from earlier generations — version 1 (unaligned, gob manifest and
// sections) and version 4 (gob manifest, flat sections) — are refused by
// every entry point with ErrVersion and a message saying the snapshot
// must be rebuilt, before any of their bytes are decoded.
func TestReadRejectsPreFlatContainers(t *testing.T) {
	for _, v := range []uint32{1, 4} {
		var file bytes.Buffer
		file.Write(magic[:])
		var word [4]byte
		binary.LittleEndian.PutUint32(word[:], v)
		file.Write(word[:])
		manifest := []byte("\x1f\xff\x81\x03\x01\x01\x08Manifest") // a gob stream header
		binary.LittleEndian.PutUint32(word[:], uint32(len(manifest)))
		file.Write(word[:])
		file.Write(manifest)
		file.WriteString("section payloads")
		path := filepath.Join(t.TempDir(), "stale.snap")
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(entry string, err error) {
			t.Helper()
			if !errors.Is(err, ErrVersion) {
				t.Errorf("v%d %s: err = %v, want ErrVersion", v, entry, err)
			} else if !strings.Contains(err.Error(), "rebuilt") {
				t.Errorf("v%d %s: error does not say to rebuild: %v", v, entry, err)
			}
		}
		_, _, err := Read(path)
		check("Read", err)
		_, err = Map(path)
		check("Map", err)
		_, err = ReadManifest(path)
		check("ReadManifest", err)
		_, err = OpenFile(path)
		check("OpenFile", err)
	}
}

// TestReadRejectsLyingSectionLength hand-crafts a container whose
// manifest claims an absurd section length: Read must reject it as
// corrupt instead of attempting the allocation (the manifest itself has
// no checksum, so a bit flip there must still fail safely).
func TestReadRejectsLyingSectionLength(t *testing.T) {
	mbuf := encodeManifest(Manifest{
		Sections: []SectionInfo{{Name: SectionIndex, Length: 1 << 60, CRC: 0}},
	})
	var file bytes.Buffer
	file.WriteString("DPOLYSNP")
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], FormatVersion)
	file.Write(word[:])
	binary.LittleEndian.PutUint32(word[:], uint32(len(mbuf)))
	file.Write(word[:])
	file.Write(mbuf)
	file.WriteString("tiny payload")

	path := filepath.Join(t.TempDir(), "lying.snap")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Read(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lying section length: err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), SectionIndex) {
		t.Errorf("error does not name the section: %v", err)
	}
}

// TestManifestRoundTrip: the slab manifest codec preserves every field,
// and the decoded strings do not alias the payload they came from.
func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	m.Sections = []SectionInfo{{Name: SectionIndex, Length: 1003, CRC: 0xFFFFFFFF}, {Name: SectionGraph, Length: 0, CRC: 7}}
	data := encodeManifest(m)
	got, err := parseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", got, m)
	}
	for i := range data {
		data[i] = 0
	}
	if got.Fingerprint.Datasets[0] != "taxi" || got.Sections[0].Name != SectionIndex {
		t.Errorf("decoded manifest aliases its payload: %+v", got)
	}
	if _, err := parseManifest(append(encodeManifest(m), make([]byte, 8)...)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing word: err = %v, want ErrCorrupt", err)
	}
}

// FuzzParseManifest: the manifest is read before any checksum can vouch
// for it, so the parser must never panic and must fail only with errors
// wrapping ErrCorrupt.
func FuzzParseManifest(f *testing.F) {
	m := testManifest()
	m.Sections = []SectionInfo{{Name: SectionIndex, Length: 999, CRC: 0xABCD}, {Name: SectionGraph, Length: 13, CRC: 1}}
	full := encodeManifest(m)
	f.Add(full)
	f.Add(full[:len(full)-8])
	f.Add(encodeManifest(Manifest{}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := parseManifest(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Errorf("non-ErrCorrupt failure: %v", err)
		}
	})
}
