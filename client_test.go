package netsmith

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netsmith/internal/serve"
	"netsmith/internal/store"
)

func clientTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: 2})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs
}

var clientMatrixSeed = int64(31)

var clientMatrixJob = MatrixJob{
	Grid:     "3x3",
	Patterns: []string{"uniform", "tornado"},
	Rates:    []float64{0.05, 0.12},
	Fidelity: "smoke",
	Seed:     &clientMatrixSeed,
}

// The same job through the local and remote paths must yield the same
// matrix, byte for byte.
func TestClientLocalRemoteByteIdentical(t *testing.T) {
	hs := clientTestServer(t)
	remote, err := NewClient(WithServer(hs.URL), WithPollInterval(10*time.Millisecond))
	if err != nil {
		t.Fatalf("NewClient(remote): %v", err)
	}
	local, err := NewClient(WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatalf("NewClient(local): %v", err)
	}

	ctx := context.Background()
	rOut, rHit, err := remote.Matrix(ctx, clientMatrixJob)
	if err != nil {
		t.Fatalf("remote Matrix: %v", err)
	}
	lOut, lHit, err := local.Matrix(ctx, clientMatrixJob)
	if err != nil {
		t.Fatalf("local Matrix: %v", err)
	}
	if rHit || lHit {
		t.Fatalf("cold runs reported cache hits: remote=%v local=%v", rHit, lHit)
	}
	rb, _ := json.Marshal(rOut.Matrix)
	lb, _ := json.Marshal(lOut.Matrix)
	if !bytes.Equal(rb, lb) {
		t.Fatalf("local and remote matrices differ:\nremote: %s\nlocal:  %s", rb, lb)
	}

	// A repeat against the same server is answered from the store.
	rOut2, rHit2, err := remote.Matrix(ctx, clientMatrixJob)
	if err != nil {
		t.Fatalf("remote Matrix (warm): %v", err)
	}
	if !rHit2 {
		t.Fatalf("warm remote run not a cache hit (stats: %+v)", rOut2.Stats)
	}
	rb2, _ := json.Marshal(rOut2.Matrix)
	if !bytes.Equal(rb2, rb) {
		t.Fatalf("warm remote matrix differs from cold run")
	}
}

func TestClientSynthLocalRemoteAgree(t *testing.T) {
	hs := clientTestServer(t)
	remote, err := NewClient(WithServer(hs.URL), WithPollInterval(10*time.Millisecond))
	if err != nil {
		t.Fatalf("NewClient(remote): %v", err)
	}
	local, err := NewClient(WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatalf("NewClient(local): %v", err)
	}
	job := SynthJob{Grid: "4x4", Seed: 7, Iterations: 50}

	ctx := context.Background()
	rOut, _, err := remote.Synth(ctx, job)
	if err != nil {
		t.Fatalf("remote Synth: %v", err)
	}
	lOut, lHit, err := local.Synth(ctx, job)
	if err != nil {
		t.Fatalf("local Synth: %v", err)
	}
	if lHit {
		t.Fatal("cold local synth reported a cache hit")
	}
	rb, _ := json.Marshal(rOut)
	lb, _ := json.Marshal(lOut)
	if !bytes.Equal(rb, lb) {
		t.Fatalf("local and remote synth results differ:\nremote: %s\nlocal:  %s", rb, lb)
	}

	// Warm local store: same client, same job, now a hit.
	_, lHit2, err := local.Synth(ctx, job)
	if err != nil {
		t.Fatalf("local Synth (warm): %v", err)
	}
	if !lHit2 {
		t.Fatal("warm local synth not a cache hit")
	}
}

func TestClientRemoteErrorsSurfaceCode(t *testing.T) {
	hs := clientTestServer(t)
	c, err := NewClient(WithServer(hs.URL), WithPollInterval(10*time.Millisecond))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	_, _, err = c.Matrix(context.Background(), MatrixJob{Grid: "not-a-grid"})
	if err == nil {
		t.Fatal("invalid grid accepted")
	}
	if !strings.Contains(err.Error(), "bad_request") {
		t.Fatalf("error does not carry the API code: %v", err)
	}
}

// TestClientTraceLocalOnly: the wire format has no trace field, so a
// remote client refuses a trace job instead of silently dropping the
// trace, while a local client replays it.
func TestClientTraceLocalOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte("0,0,5,4\n3,1,7,2\n8,6,3,4\n10,2,8,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	job := clientMatrixJob
	job.Trace = path
	remote, err := NewClient(WithServer(clientTestServer(t).URL), WithPollInterval(10*time.Millisecond))
	if err != nil {
		t.Fatalf("NewClient(remote): %v", err)
	}
	if _, _, err := remote.Matrix(context.Background(), job); err == nil {
		t.Error("remote Matrix accepted a trace job")
	}
	local, err := NewClient()
	if err != nil {
		t.Fatalf("NewClient(local): %v", err)
	}
	out, _, err := local.Matrix(context.Background(), job)
	if err != nil {
		t.Fatalf("local Matrix: %v", err)
	}
	if c := out.Matrix.Curves; c[len(c)-1].Pattern != "trace/t" {
		t.Errorf("last row is %q, want the trace/t replay", c[len(c)-1].Pattern)
	}
}

func TestClientProgressCallback(t *testing.T) {
	var last, total int
	c, err := NewClient(WithProgress(func(d, tot int) { last, total = d, tot }))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	out, _, err := c.Matrix(context.Background(), clientMatrixJob)
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	cells := out.Stats.Cells
	if cells == 0 || last != cells || total != cells {
		t.Fatalf("progress ended at %d/%d, want %d/%d", last, total, cells, cells)
	}
}

func TestClientOptionValidation(t *testing.T) {
	if _, err := NewClient(WithServer("")); err == nil {
		t.Fatal("empty server URL accepted")
	}
	if _, err := NewClient(WithPollInterval(0)); err == nil {
		t.Fatal("zero poll interval accepted")
	}
}
