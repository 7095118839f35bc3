package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/httpapi"
	"github.com/urbandata/datapolygamy/internal/replica"
	"github.com/urbandata/datapolygamy/internal/store"
)

// TestPrepareFrameworkRebuildsStaleSnapshot pins the upgrade path of a
// warm start: a snapshot from an earlier format generation is refused, so
// prepareFramework logs "snapshot unusable", cold-builds the index, and
// re-saves the snapshot in the current format — which the next start
// loads warm.
func TestPrepareFrameworkRebuildsStaleSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.snap")
	if err := testFramework(t).Save(path); err != nil {
		t.Fatal(err)
	}
	// Stamp the previous generation's container version into the header:
	// the version word alone decides, before any manifest byte is read.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], 4)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadManifest(path); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("stale fixture: err = %v, want ErrVersion", err)
	}

	var logs bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logs, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })

	fw := testFrameworkCold(t)
	warm, err := prepareFramework(fw, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Error("a stale snapshot produced a warm start")
	}
	if !strings.Contains(logs.String(), "snapshot unusable") {
		t.Errorf("no \"snapshot unusable\" log line:\n%s", logs.String())
	}
	if !fw.Indexed() {
		t.Fatal("fallback did not cold-build the index")
	}
	m, err := store.ReadManifest(path)
	if err != nil {
		t.Fatalf("re-saved snapshot unreadable: %v", err)
	}
	if m.FormatVersion != store.FormatVersion {
		t.Errorf("re-saved snapshot has format %d, want %d", m.FormatVersion, store.FormatVersion)
	}
	if err := testFrameworkCold(t).Load(path); err != nil {
		t.Fatalf("Load rejects the re-saved snapshot: %v", err)
	}
	logs.Reset()
	if warm, err := prepareFramework(testFrameworkCold(t), path, false); err != nil || !warm {
		t.Errorf("restart on the re-saved snapshot: warm = %t, err = %v", warm, err)
	}
	if !strings.Contains(logs.String(), "warm start") {
		t.Errorf("restart did not log a warm start:\n%s", logs.String())
	}
}

// TestGraphMergeRejectsCorruptShard: a shard damaged in transit is a bad
// request (400) naming the corruption, while the intact shard merges.
func TestGraphMergeRejectsCorruptShard(t *testing.T) {
	fw := testFramework(t)
	path := filepath.Join(t.TempDir(), "leader.snap")
	if err := fw.Save(path); err != nil {
		t.Fatal(err)
	}
	shard, err := fw.BuildGraphShard(core.Clause{Permutations: 30}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(fw)
	s.snapshotPath = path
	s.enableLeader(replica.NewSource(path))
	srv := httptest.NewServer(s)
	defer srv.Close()

	merge := func(payload []byte) (int, string) {
		t.Helper()
		body, err := json.Marshal(httpapi.GraphMergeRequest{
			Clause: httpapi.ClauseRequest{Permutations: 30},
			Shards: [][]byte{payload},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/v1/graph/merge", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	for _, bad := range [][]byte{shard[:len(shard)-8], []byte("not a shard")} {
		code, body := merge(bad)
		if code != http.StatusBadRequest || !strings.Contains(body, "corrupt") {
			t.Errorf("corrupt shard (%d bytes): status %d, body %s; want 400 naming the corruption", len(bad), code, body)
		}
	}
	if code, body := merge(shard); code != http.StatusOK {
		t.Errorf("intact shard: status %d: %s", code, body)
	}
}
