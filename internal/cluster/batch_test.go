package cluster

import (
	"testing"

	"exist/internal/coverage"
	"exist/internal/faults"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/workload"
)

// batchedCluster builds a walker-backed cluster with upload batching on
// and the given injector.
func batchedCluster(t *testing.T, nodes, batch int, fc *faults.Config) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.CoresPerNode = 4
	cfg.Seed = 3
	cfg.UploadBatch = batch
	if fc != nil {
		cfg.Faults = faults.New(*fc)
	}
	c := New(cfg)
	agent, err := workload.ByName("Agent")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(agent, nil, workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	return c
}

func requestAndRun(t *testing.T, c *Cluster, name string, until simtime.Time) *TraceRequest {
	t.Helper()
	req, err := c.Request(name, TraceRequestSpec{
		App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 200 * simtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(until)
	return req
}

func TestBatchedUploadAmortizesPuts(t *testing.T) {
	c := batchedCluster(t, 6, 4, nil)
	req := requestAndRun(t, c, "batched", 5*simtime.Second)
	if req.Phase != PhaseCompleted {
		t.Fatalf("phase = %s (%s)", req.Phase, req.Message)
	}
	landed := int64(len(req.SessionKeys))
	if landed < 2 {
		t.Fatalf("only %d sessions landed", landed)
	}
	if c.Uploads.Sessions != landed {
		t.Fatalf("ledger sessions %d != landed %d", c.Uploads.Sessions, landed)
	}
	if c.Uploads.Batches >= landed {
		t.Fatalf("batching ineffective: %d PUTs for %d sessions", c.Uploads.Batches, landed)
	}
	// Every session is individually retrievable and decodes, and the
	// v2 wire volume undercuts the v1-equivalent volume.
	for _, key := range req.SessionKeys {
		blob, ok := c.OSS.Get(key)
		if !ok {
			t.Fatalf("session %s missing from store", key)
		}
		if _, err := trace.UnmarshalSession(blob); err != nil {
			t.Fatalf("session %s does not decode: %v", key, err)
		}
	}
	if c.Uploads.WireBytes >= c.Uploads.V1Bytes {
		t.Fatalf("no compression: wire %d >= v1 %d", c.Uploads.WireBytes, c.Uploads.V1Bytes)
	}
}

func TestBatchedUploadMatchesUnbatchedResults(t *testing.T) {
	// Batching changes PUT timing, not outcomes: the same deployment must
	// land the same sessions with the same decoded rows.
	run := func(batch int) (*TraceRequest, *Cluster) {
		c := batchedCluster(t, 6, batch, nil)
		return requestAndRun(t, c, "same", 5*simtime.Second), c
	}
	r1, c1 := run(0)
	r2, c2 := run(4)
	if r1.Phase != r2.Phase || len(r1.SessionKeys) != len(r2.SessionKeys) {
		t.Fatalf("batched run diverged: %s/%d vs %s/%d",
			r1.Phase, len(r1.SessionKeys), r2.Phase, len(r2.SessionKeys))
	}
	if c1.ODPS.Len() != c2.ODPS.Len() {
		t.Fatalf("decoded rows diverged: %d vs %d", c1.ODPS.Len(), c2.ODPS.Len())
	}
	if c1.Uploads.WireBytes != c2.Uploads.WireBytes {
		t.Fatalf("wire volume diverged: %d vs %d", c1.Uploads.WireBytes, c2.Uploads.WireBytes)
	}
	if c2.Uploads.Batches >= c1.Uploads.Batches {
		t.Fatalf("batching did not reduce puts: %d vs %d", c2.Uploads.Batches, c1.Uploads.Batches)
	}
}

func TestBatchedUploadRetriesAsUnit(t *testing.T) {
	c := batchedCluster(t, 6, 3, &faults.Config{Seed: 11, PutFailProb: 0.4})
	req := requestAndRun(t, c, "flaky-batch", 10*simtime.Second)
	if req.Phase != PhaseCompleted {
		t.Fatalf("phase = %s (%s)", req.Phase, req.Message)
	}
	if c.Cfg.Faults.Stats().PutFailures == 0 {
		t.Skip("injector never fired for this seed; adjust PutFailProb")
	}
	if c.Mgmt.Retries == 0 {
		t.Fatal("failures occurred but no retries recorded")
	}
	// Recovery is complete: all planned sessions landed exactly once.
	if int64(len(req.SessionKeys)) != c.Uploads.Sessions {
		t.Fatalf("landed %d != ledger %d", len(req.SessionKeys), c.Uploads.Sessions)
	}
	seen := map[string]bool{}
	for _, k := range req.SessionKeys {
		if seen[k] {
			t.Fatalf("session %s recorded twice", k)
		}
		seen[k] = true
		if _, ok := c.OSS.Get(k); !ok {
			t.Fatalf("recorded session %s not in store", k)
		}
	}
	if req.Message != "" {
		t.Fatalf("stale message after recovery: %q", req.Message)
	}
}

func TestBatchedUploadExhaustionResamplesOnce(t *testing.T) {
	// Every PUT fails: each batch exhausts its retries and every slot in
	// it re-samples, eventually giving up after resampleMax attempts. The
	// slot ledger must balance exactly — no session may be double-counted
	// as both lost and landed, or re-sampled twice per failure.
	c := batchedCluster(t, 3, 2, &faults.Config{Seed: 7, PutFailProb: 1})
	req := requestAndRun(t, c, "doomed-batch", 30*simtime.Second)
	if !req.Phase.Terminal() {
		t.Fatalf("request hung in %s", req.Phase)
	}
	if len(req.SessionKeys) != 0 {
		t.Fatalf("sessions landed despite total PUT failure: %v", req.SessionKeys)
	}
	if req.Phase != PhaseFailed {
		t.Fatalf("phase = %s, want Failed with zero coverage", req.Phase)
	}
	checkSafety(t, c)
	if c.Uploads.Sessions != 0 || c.Uploads.Batches != 0 {
		t.Fatalf("ledger counted phantom uploads: %+v", c.Uploads)
	}
}

func TestBatchedUploadDropsTerminalRequests(t *testing.T) {
	// A deadline fires while a batch is held back (or retrying): the
	// terminal request's sessions must be dropped at delivery without
	// completing against a resolved request.
	c := batchedCluster(t, 6, 4, &faults.Config{Seed: 13, PutFailProb: 0.9})
	req, err := c.Request("deadline-batch", TraceRequestSpec{
		App: "Agent", Purpose: coverage.PurposeAnomaly,
		Period: 200 * simtime.Millisecond, Deadline: 1500 * simtime.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(20 * simtime.Second)
	if !req.Phase.Terminal() {
		t.Fatalf("request hung in %s", req.Phase)
	}
	// Ledger consistency regardless of which side of the deadline each
	// batch landed on.
	if int64(len(req.SessionKeys)) != c.Uploads.Sessions {
		t.Fatalf("landed %d != ledger %d", len(req.SessionKeys), c.Uploads.Sessions)
	}
	// No slot over-counted, and none left pending unless the deadline
	// abandoned it.
	checkSafety(t, c)
}

// TestCancelKeepsRetriedCaptures cancels a request while its captures are
// being uploaded through a failing store: every capture filed before the
// cancel must land or be counted lost, never be dropped by a retry.
func TestCancelKeepsRetriedCaptures(t *testing.T) {
	var failures int64
	for _, batch := range []int{1, 4} {
		for seed := uint64(1); seed <= 6; seed++ {
			c := batchedCluster(t, 3, batch, &faults.Config{Seed: seed, PutFailProb: 0.5})
			req, err := c.Request("cancel-retry", TraceRequestSpec{
				App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 2 * simtime.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			c.Run(300 * simtime.Millisecond)
			captured := len(c.openSessions(req))
			if captured == 0 {
				t.Fatalf("batch %d seed %d: no session open at the cancel", batch, seed)
			}
			c.Cancel(req)
			c.Run(20 * simtime.Second)
			if got := len(req.SessionKeys) + req.Lost; got != captured {
				t.Errorf("batch %d seed %d: %d landed + %d lost, want %d captured",
					batch, seed, len(req.SessionKeys), req.Lost, captured)
			}
			if req.Phase != PhaseCancelled {
				t.Errorf("batch %d seed %d: phase %s, want Cancelled", batch, seed, req.Phase)
			}
			checkSafety(t, c)
			failures += c.Cfg.Faults.Stats().PutFailures
		}
	}
	if failures == 0 {
		t.Fatal("no PUT failed; the test exercises no retry")
	}
}

// TestDeleteDropsRetriedCaptures deletes a cancelled request while its
// captures still retry their upload: none may land after the delete.
func TestDeleteDropsRetriedCaptures(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		c := batchedCluster(t, 3, 1, &faults.Config{Seed: seed, PutFailProb: 0.5})
		req, err := c.Request("delete-retry", TraceRequestSpec{
			App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 2 * simtime.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(300 * simtime.Millisecond)
		c.Cancel(req)
		if err := c.Delete(req.Name); err != nil {
			t.Fatal(err)
		}
		c.Run(20 * simtime.Second)
		if left := c.OSS.List(""); len(left) != 0 {
			t.Errorf("seed %d: %d blobs landed after Delete: %v", seed, len(left), left)
		}
	}
}
