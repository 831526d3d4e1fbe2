package experiments

import (
	"bytes"
	"fmt"

	"exist/internal/cluster"
	"exist/internal/coverage"
	"exist/internal/hotbench"
	"exist/internal/simtime"
	"exist/internal/tabular"
	"exist/internal/trace"
	"exist/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "datapath",
		Title: "Data path: v2 wire format compression and batched uploads",
		Paper: "efficiency story (section 4): trace volume shipped off-node must stay small; compressed session encoding plus PUT batching",
		Run:   runDatapath,
	})
}

// runDatapath measures the wire-format win on the shared hotbench
// fixtures (deterministic tracer output, no wall clock anywhere) and
// demonstrates upload batching on a small cluster. Sizes and ratios are
// exact byte counts, so the table is reproducible to the digit.
func runDatapath(cfg Config) (*Result, error) {
	res := &Result{ID: "datapath"}

	// Wire-format sizes on the tracer-output fixtures.
	budget := int64(4_000_000)
	if cfg.Quick {
		budget = 1_000_000
	}
	t := &tabular.Table{
		Title:  "Session wire-format sizes (hotbench fixtures)",
		Header: []string{"fixture", "v1 bytes", "v2 packed", "packed ratio"},
	}
	var totalV1, totalPacked int64
	for _, seed := range []uint64{1, 2} {
		prog := hotbench.Program(seed)
		s := hotbench.Session(prog, seed, budget)
		v1 := trace.V1Size(s)
		packed := s.Marshal()
		// The encoding must reproduce the session exactly.
		got, err := trace.UnmarshalSession(packed)
		if err != nil {
			return nil, fmt.Errorf("fixture %d roundtrip: %w", seed, err)
		}
		for i := range s.Cores {
			if !bytes.Equal(got.Cores[i].Data, s.Cores[i].Data) {
				return nil, fmt.Errorf("fixture %d core %d data mismatch", seed, i)
			}
		}
		ratio := float64(v1) / float64(len(packed))
		t.AddRow(fmt.Sprintf("hot-%d", seed), fmt.Sprintf("%d", v1),
			fmt.Sprintf("%d", len(packed)), fmt.Sprintf("%.2fx", ratio))
		totalV1 += int64(v1)
		totalPacked += int64(len(packed))
	}
	t.Notes = append(t.Notes,
		"v2 packed: varint/delta + target dictionary + fused CYC/TIP ops",
		"target: >=3x smaller than the uncompressed v1 dump")
	res.Tables = append(res.Tables, t)

	// Batched uploads on a live cluster: same deployment run with one
	// PUT per session and with four sessions per PUT.
	agent, err := workload.ByName("Agent")
	if err != nil {
		return nil, err
	}
	var runs []fleetRun
	for _, batch := range []int{0, 4} {
		ccfg := cluster.DefaultConfig()
		ccfg.Seed = cfg.Seed
		ccfg.Nodes = 6
		ccfg.CoresPerNode = 4
		ccfg.UploadBatch = batch
		runs = append(runs, fleetRun{name: fmt.Sprintf("datapath batch %d", batch), cfg: ccfg, app: agent,
			opts: workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: cfg.Seed + 5},
			files: func() []filing {
				return []filing{{name: "dp", spec: cluster.TraceRequestSpec{
					App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 200 * simtime.Millisecond,
				}}}
			},
			stop: 5 * simtime.Second})
	}
	uploads, err := runFleets(cfg, runs, func(_ int, f *fleet) cluster.UploadStats { return f.c.Uploads })
	if err != nil {
		return nil, err
	}
	single, batched := uploads[0], uploads[1]
	bt := &tabular.Table{
		Title:  "Upload batching (6-node cluster, one anomaly request)",
		Header: []string{"mode", "sessions", "PUTs", "wire KB", "v1-equiv KB"},
	}
	for _, row := range []struct {
		name string
		u    cluster.UploadStats
	}{{"1 session/PUT", single}, {"4 sessions/PUT", batched}} {
		u := row.u
		bt.AddRow(row.name, fmt.Sprintf("%d", u.Sessions), fmt.Sprintf("%d", u.Batches),
			fmt.Sprintf("%.1f", float64(u.WireBytes)/1024), fmt.Sprintf("%.1f", float64(u.V1Bytes)/1024))
	}
	bt.Notes = append(bt.Notes,
		"batching amortizes per-PUT overhead; batches retry as a unit and degrade per the resilience semantics")
	res.Tables = append(res.Tables, bt)

	if single.Sessions != batched.Sessions {
		return nil, fmt.Errorf("batching changed landed sessions: %d vs %d",
			single.Sessions, batched.Sessions)
	}

	res.Metric("packed_ratio", float64(totalV1)/float64(totalPacked))
	res.Metric("wire_bytes_per_session", float64(single.WireBytes)/float64(single.Sessions))
	res.Metric("puts_single", float64(single.Batches))
	res.Metric("puts_batched", float64(batched.Batches))
	return res, nil
}
