package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/urbandata/datapolygamy/internal/store"
)

// TestLoadValidatesCorpus: Load refuses a snapshot of another corpus and
// garbage input — a foreign file, and a well-formed container whose index
// section is not an index — leaving the framework unindexed.
func TestLoadValidatesCorpus(t *testing.T) {
	f := newFW(t)
	wind, trips := plantedPair(32, []int{5}, nil)
	_ = f.AddDataset(wind)
	_ = f.AddDataset(trips)
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}

	// A different data set collection must be rejected.
	g := newFW(t)
	wind2, _ := plantedPair(32, []int{5}, nil)
	_ = g.AddDataset(wind2)
	if err := g.Load(path); err == nil {
		t.Error("Load with mismatched corpus should fail")
	}
	if g.Indexed() {
		t.Error("failed Load left the framework indexed")
	}

	// Garbage input must be rejected: a foreign file, and a container
	// whose index section holds no index.
	h := newFW(t)
	_ = h.AddDataset(wind)
	_ = h.AddDataset(trips)
	junk := filepath.Join(t.TempDir(), "junk.snap")
	if err := os.WriteFile(junk, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := h.Load(junk); !errors.Is(err, store.ErrNotSnapshot) {
		t.Errorf("Load of a foreign file: err = %v, want ErrNotSnapshot", err)
	}
	bad := rewriteSection(t, path, store.SectionIndex, []byte("not an index, padded to 8"))
	if err := h.Load(bad); !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("Load of a garbage index section: err = %v, want ErrCorrupt", err)
	}
	if h.Indexed() {
		t.Error("failed Load left the framework indexed")
	}
}
