// Command existctl exercises the cluster-level configuration interface:
// it builds a simulated cluster, deploys an application across nodes,
// files a TraceRequest CRD (as engineers do through the Kubernetes API in
// the paper's deployment), and reports the reconciled result — sessions in
// the object store and decoded rows in the structured store.
//
// Usage:
//
//	existctl -app Agent -nodes 10 -purpose anomaly -period 500ms
//
// A node or core count below 1, a purpose other than anomaly or
// profiling, or a probability outside [0, 1] exits 2 with a one-line
// message before anything is built.
//
// Fault injection is strictly opt-in: the -loss/-corrupt/-put-fail/
// -crash-mtbf/-stall flags attach a seeded injector and exercise the
// resilient control plane (retries, leases, re-sampling, deadlines).
// -cancel-after aborts the request mid-flight and deletes it, walking the
// full CRD lifecycle.
//
// The control plane is -replicas controller replicas (default 1) with
// lease-based leader election; chaos scenarios are opt-in:
// -ctrl-crash-mtbf / -partition-mtbf / -gray-prob / -clock-skew select
// controller-crash, store-partition, gray-failure, and clock-skew
// storms. Every run ends with an availability/failover summary:
//
//	existctl -replicas 3 -ctrl-crash-mtbf 1s -partition-mtbf 800ms
//
// -shards splits the API-server store into N shards with range-leased
// reconciliation: each replica leads a subset of shards, and the run
// also ends with a per-shard scaling summary (leaders, queue depths,
// reconciles/s, rebalances):
//
//	existctl -replicas 3 -shards 8 -ctrl-crash-mtbf 1s
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"exist/internal/cluster"
	"exist/internal/coverage"
	"exist/internal/faults"
	"exist/internal/metrics"
	"exist/internal/obs"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/workload"
)

func main() {
	var (
		appName = flag.String("app", "Agent", "application to trace")
		nodes   = flag.Int("nodes", 10, "cluster size")
		cores   = flag.Int("cores", 8, "cores per node")
		purpose = flag.String("purpose", "anomaly", "anomaly | profiling")
		period  = flag.Duration("period", 0, "tracing period (0 = temporal decider)")
		seed    = flag.Uint64("seed", 1, "simulation seed")

		lossProb    = flag.Float64("loss", 0, "per-session data-loss probability (enables fault injection)")
		corruptProb = flag.Float64("corrupt", 0, "per-session buffer bit-flip probability")
		truncProb   = flag.Float64("truncate", 0, "per-session buffer tail-chop probability")
		putFailProb = flag.Float64("put-fail", 0, "per-attempt object-store failure probability")
		stallProb   = flag.Float64("stall", 0, "per-iteration controller stall probability")
		crashMTBF   = flag.Duration("crash-mtbf", 0, "node mean time between crashes (0 = no crashes)")
		faultSeed   = flag.Uint64("fault-seed", 42, "fault-injection seed")

		replicas      = flag.Int("replicas", 1, "controller replicas with leader election")
		shards        = flag.Int("shards", 0, "API-server store shards with range-leased reconciliation (0 = single shard)")
		ctrlCrashMTBF = flag.Duration("ctrl-crash-mtbf", 0, "controller mean time between crashes (0 = none)")
		ctrlCrashDown = flag.Duration("ctrl-crash-down", 0, "controller crash downtime (0 = default)")
		partitionMTBF = flag.Duration("partition-mtbf", 0, "controller-store partition mean time between events (0 = none)")
		partitionDur  = flag.Duration("partition-dur", 0, "mean partition duration (0 = default)")
		grayProb      = flag.Float64("gray-prob", 0, "probability a node is a gray failure (late heartbeats)")
		grayDelay     = flag.Duration("gray-delay", 0, "mean extra heartbeat delay on gray nodes (0 = default)")
		clockSkew     = flag.Duration("clock-skew", 0, "max controller clock skew for lease stamps (0 = none)")

		cancelAfter = flag.Duration("cancel-after", 0, "cancel and delete the request after this virtual time (0 = run to completion)")
	)
	flag.Parse()

	pur, err := checkFlags(*nodes, *cores, *purpose, map[string]float64{
		"loss": *lossProb, "corrupt": *corruptProb, "truncate": *truncProb,
		"put-fail": *putFailProb, "stall": *stallProb, "gray-prob": *grayProb,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "existctl:", err)
		os.Exit(2)
	}
	p, err := workload.ByName(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = *nodes
	ccfg.CoresPerNode = *cores
	ccfg.Seed = *seed
	ccfg.Replicas = *replicas
	ccfg.Shards = *shards
	fc := faults.Config{
		Seed:              *faultSeed,
		PutFailProb:       *putFailProb,
		SessionLossProb:   *lossProb,
		CorruptProb:       *corruptProb,
		TruncateProb:      *truncProb,
		StallProb:         *stallProb,
		CrashMTBF:         simtime.Duration(crashMTBF.Nanoseconds()),
		CtrlCrashMTBF:     simtime.Duration(ctrlCrashMTBF.Nanoseconds()),
		CtrlCrashDowntime: simtime.Duration(ctrlCrashDown.Nanoseconds()),
		PartitionMTBF:     simtime.Duration(partitionMTBF.Nanoseconds()),
		PartitionMeanDur:  simtime.Duration(partitionDur.Nanoseconds()),
		GrayNodeProb:      *grayProb,
		GrayDelayMean:     simtime.Duration(grayDelay.Nanoseconds()),
		ClockSkewMax:      simtime.Duration(clockSkew.Nanoseconds()),
	}
	faultsOn := fc != (faults.Config{Seed: *faultSeed})
	if faultsOn {
		ccfg.Faults = faults.New(fc)
	}
	c := cluster.New(ccfg)
	if err := c.Deploy(p, nil, workload.InstallOpts{Walker: true, Scale: trace.SpaceScale, Seed: *seed}); err != nil {
		fmt.Fprintln(os.Stderr, "deploy:", err)
		os.Exit(1)
	}
	fmt.Printf("existctl: deployed %s on %d nodes (%d cores each)\n", p.Name, *nodes, *cores)
	if faultsOn {
		fmt.Printf("existctl: fault injection ON (seed=%d loss=%.2f corrupt=%.2f truncate=%.2f put-fail=%.2f stall=%.2f crash-mtbf=%v)\n",
			*faultSeed, *lossProb, *corruptProb, *truncProb, *putFailProb, *stallProb, *crashMTBF)
	}
	if *ctrlCrashMTBF > 0 || *partitionMTBF > 0 || *grayProb > 0 || *clockSkew > 0 {
		fmt.Printf("existctl: chaos scenario ON (ctrl-crash-mtbf=%v partition-mtbf=%v gray-prob=%.2f gray-delay=%v clock-skew=%v)\n",
			*ctrlCrashMTBF, *partitionMTBF, *grayProb, *grayDelay, *clockSkew)
	}
	if *replicas > 1 {
		fmt.Printf("existctl: replicated control plane: %d controllers competing for the leader lease\n", *replicas)
	}
	if *shards > 1 {
		fmt.Printf("existctl: sharded API server: %d store shards with range-leased reconciliation\n", *shards)
	}

	req, err := c.Request("existctl-request", cluster.TraceRequestSpec{
		App:     p.Name,
		Purpose: pur,
		Period:  simtime.Duration(period.Nanoseconds()),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "request:", err)
		os.Exit(1)
	}
	fmt.Printf("existctl: filed TraceRequest %q (purpose=%s)\n", req.Name, *purpose)
	// Subscribe to the request's watch stream, as operator tooling does.
	c.API.Watch(func(r *cluster.TraceRequest) {
		fmt.Printf("existctl: [watch %v] %s -> %s %s\n", c.Eng.Now(), r.Name, r.Phase, r.Message)
	})
	if *cancelAfter > 0 {
		c.Eng.Schedule(simtime.Time(cancelAfter.Nanoseconds()), func(now simtime.Time) {
			fmt.Printf("existctl: [%v] operator cancel of %s\n", now, req.Name)
			c.Cancel(req)
		})
	}

	// Sample the per-shard owner count through the run: distinct replicas
	// may lead disjoint shard ranges concurrently, but no shard may ever
	// have two fencing-valid owners at once.
	maxOwners := 0
	var sample func(now simtime.Time)
	sample = func(now simtime.Time) {
		for s := 0; s < c.API.Shards(); s++ {
			maxOwners = max(maxOwners, c.ActiveOwnersShard(s, now))
		}
		if now < 5*simtime.Second {
			c.Eng.AfterDetached(10*simtime.Millisecond, sample)
		}
	}
	c.Eng.AfterDetached(10*simtime.Millisecond, sample)

	c.Run(5 * simtime.Second)

	fmt.Printf("existctl: request phase: %s %s\n", req.Phase, req.Message)
	if req.Planned > 0 && len(req.SessionKeys) < req.Planned {
		fmt.Printf("existctl: partial coverage: %d/%d planned sessions landed (%d lost, %d re-sampled)\n",
			len(req.SessionKeys), req.Planned, req.Lost, req.Resampled)
	}
	fmt.Printf("existctl: %d sessions uploaded to OSS (%.1f KB raw)\n",
		len(req.SessionKeys), float64(c.OSS.Bytes())/1024)
	for _, key := range req.SessionKeys {
		blob, _ := c.OSS.Get(key)
		sess, err := trace.UnmarshalSession(blob)
		if err != nil {
			fmt.Fprintln(os.Stderr, "  ", key, err)
			continue
		}
		fmt.Printf("  %-40s window=%v cores=%d records=%d\n",
			key, sess.Duration(), len(sess.Cores), len(sess.Switches.Records))
	}
	agg := c.ODPS.AggregateApp(p.Name)
	fmt.Printf("existctl: ODPS holds %d rows; %d distinct functions for %s\n", c.ODPS.Len(), len(agg), p.Name)
	fmt.Printf("existctl: RCO management used %.2e cores on average\n", c.ManagementCores())
	fmt.Println("existctl: counters (faults.* injected, cluster.* control plane and uploads):")
	if fi := ccfg.Faults; fi != nil {
		obs.Write(os.Stdout, "  ", "faults.", fi.Stats())
	}
	obs.Write(os.Stdout, "  ", "cluster.", c.Mgmt)
	obs.Write(os.Stdout, "  ", "cluster.", c.Uploads)
	avail, gaps := c.Leases.Availability(c.Eng.Now().Seconds())
	fmt.Printf("existctl: availability/failover summary (%d replicas):\n", c.Cfg.Replicas)
	fmt.Printf("  leader availability       %.4f (%d leadership gaps)\n", avail, gaps)
	fmt.Printf("  elections / failovers     %d / %d\n", c.Leases.Elections(), c.Leases.Failovers())
	fmt.Printf("  mean re-adopt time        %.1f ms over %d re-adoptions\n", metrics.Mean(c.Readopts), len(c.Readopts))
	fmt.Printf("  max owners of any shard   %d (must be 1)\n", maxOwners)
	if *shards > 1 {
		elapsed := c.Eng.Now().Seconds()
		fmt.Printf("existctl: shard scaling summary (%d shards):\n", *shards)
		for s := 0; s < c.API.Shards(); s++ {
			holder, token := c.Leases.HolderShard(s)
			if holder == "" {
				holder = "(none)"
			}
			fmt.Printf("  shard %-3d leader %-8s (fencing token %d)\n", s, holder, token)
		}
		for _, ct := range c.Controllers {
			fmt.Printf("  %-8s owns %d shards %v, queue depth %d\n",
				ct.Name, len(ct.OwnedShards()), ct.OwnedShards(), ct.QueueDepth())
		}
		rps := 0.0
		if elapsed > 0 {
			rps = float64(c.Mgmt.Syncs) / elapsed
		}
		fmt.Printf("  reconciles/s              %.1f (cluster.syncs over %.2fs)\n", rps, elapsed)
		fmt.Printf("  shard rebalances          %d\n", c.ShardRebalances())
	}
	if *cancelAfter > 0 {
		if err := c.Delete(req.Name); err != nil {
			fmt.Fprintln(os.Stderr, "delete:", err)
			os.Exit(1)
		}
		if _, ok := c.API.Get(req.Name); ok {
			fmt.Fprintln(os.Stderr, "delete: request still present after Delete")
			os.Exit(1)
		}
		fmt.Printf("existctl: deleted TraceRequest %q (phase was %s); OSS now holds %d session blobs\n",
			req.Name, req.Phase, len(c.OSS.List("")))
	}
}

// checkFlags rejects the flag values the cluster cannot run: a node or
// core count below 1, a purpose other than anomaly or profiling, or a
// probability outside [0, 1] (probs maps flag names to values). It
// returns the purpose the request files.
func checkFlags(nodes, cores int, purpose string, probs map[string]float64) (coverage.Purpose, error) {
	if nodes < 1 {
		return 0, fmt.Errorf("-nodes %d: need at least 1", nodes)
	}
	if cores < 1 {
		return 0, fmt.Errorf("-cores %d: need at least 1", cores)
	}
	pur := coverage.PurposeAnomaly
	switch purpose {
	case "anomaly":
	case "profiling":
		pur = coverage.PurposeProfiling
	default:
		return 0, fmt.Errorf("-purpose %q: want anomaly or profiling", purpose)
	}
	names := make([]string, 0, len(probs))
	for name := range probs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := probs[name]; !(v >= 0 && v <= 1) {
			return 0, fmt.Errorf("-%s %v: a probability must lie in [0, 1]", name, v)
		}
	}
	return pur, nil
}
