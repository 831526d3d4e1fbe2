package rows

import (
	"fmt"
	"strconv"

	"exist/internal/cluster"
	"exist/internal/coverage"
	"exist/internal/faults"
	"exist/internal/simtime"
	"exist/internal/workload"
)

// The control-plane rows share the fleet workload's plane: three
// controller replicas over eight shards.
const (
	replicas = 3
	shards   = 8
)

// fleetConfig is a Lite cluster of n four-core nodes on the fleet's plane.
func fleetConfig(n int) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Lite = true
	cfg.Nodes = n
	cfg.CoresPerNode = 4
	cfg.Replicas = replicas
	cfg.Shards = shards
	return cfg
}

// deployAgent deploys the Agent profile on every node of c.
func deployAgent(c *cluster.Cluster, opts workload.InstallOpts) {
	agent, err := workload.ByName("Agent")
	must(err)
	must(c.Deploy(agent, nil, opts))
}

// lite_session: a warm 16-node Lite cluster with no fault injection, on
// which each op files a one-node request pinned to node-1 and runs it to
// completion, so the op opens, finishes and uploads exactly one virtual
// session through the batch upload path, then deletes the request, blob
// included, so every op starts from the same store contents. The fixture
// runs liteWarmOps ops first so queues, watch buffers and stores reach
// their steady sizes.
const (
	liteNodes   = 16
	liteWarmOps = 64
	liteReq     = "lite-hot"
)

func liteSession() Fixture {
	c := cluster.New(fleetConfig(liteNodes))
	deployAgent(c, workload.InstallOpts{})
	spec := cluster.TraceRequestSpec{
		App: "Agent", Purpose: coverage.PurposeAnomaly, Nodes: []string{"node-1"}, Period: 20 * simtime.Millisecond,
	}
	op := func() {
		r, err := c.Request(liteReq, spec)
		must(err)
		for !r.Phase.Terminal() {
			c.Eng.Step()
		}
		if r.Phase != cluster.PhaseCompleted || len(r.SessionKeys) != 1 {
			panic(fmt.Sprintf("rows: lite_session request ended %s with %d sessions", r.Phase, len(r.SessionKeys)))
		}
		must(c.Delete(liteReq))
	}
	for i := 0; i < liteWarmOps; i++ {
		op()
	}
	return Fixture{Op: op}
}

// node_liveness: a 100k-node Lite cluster with the fleet's faults (1%
// gray nodes, a 240 s churn MTBF, 2 s controller crashes) and no
// requests, warmed for the fleet's 2 s preroll, so an op costs the lease
// heartbeats, the node-fault schedule and the replicas' election and
// pump ticks. One op is one simulated second.
const livenessNodes = 100_000

func nodeLiveness() Fixture {
	cfg := fleetConfig(livenessNodes)
	cfg.Faults = faults.New(faults.Config{
		Seed:              cfg.Seed,
		CtrlCrashMTBF:     2 * simtime.Second,
		CtrlCrashDowntime: 500 * simtime.Millisecond,
		ChurnMTBF:         240 * simtime.Second,
		ChurnDownMean:     simtime.Second,
		GrayNodeProb:      0.01,
	})
	c := cluster.New(cfg)
	c.Run(2 * simtime.Second)
	return Fixture{Op: func() { c.Run(c.Eng.Now() + simtime.Second) }}
}

// store_put: a warm store shaped like the fleet's (a fault injector
// that never fails a put) holding storeWarm blobs, into which each op
// puts one session blob under a key the store does not hold, keyed as
// the upload path keys a batch of one. The untimed hook deletes
// the fresh blobs every storeFresh ops, so the store's size stays
// bounded.
const (
	storeWarm  = 64 << 10
	storeFresh = 64 << 10
)

func storePut() Fixture {
	oss := cluster.NewObjectStore()
	oss.UseFaults(faults.New(faults.Config{Seed: 1, GrayNodeProb: 0.01}))
	blob := []byte("store-hot/node-0")
	var keys [1]string
	var blobs [1][]byte
	put := func(key string) {
		keys[0], blobs[0] = key, blob
		must(oss.PutBatch(key, keys[:], blobs[:]))
	}
	// sessionKey shapes key i like a session's object key: eight node
	// sessions per request.
	sessionKey := func(req string, i int) string {
		return "sessions/" + req + "-" + strconv.Itoa(i/8) + "/node-" + strconv.Itoa(i)
	}
	for i := 0; i < storeWarm; i++ {
		put(sessionKey("warm", i))
	}
	fresh := make([]string, storeFresh)
	for i := range fresh {
		fresh[i] = sessionKey("fresh", i)
	}
	next := 0
	reset := func() {
		for _, key := range fresh[:next] {
			oss.Delete(key)
		}
		next = 0
	}
	// One full pass brings the blob map to its steady size.
	for _, key := range fresh {
		put(key)
	}
	next = len(fresh)
	reset()
	return Fixture{Op: func() {
		put(fresh[next])
		next++
	}, Untimed: reset, Every: storeFresh}
}

// cluster_nodes_j*: six 4-core nodes running the walker-backed Agent
// profile, six requests filed 300 ms apart (alternating profiling and
// anomaly windows), request 2 cancelled 200 ms into its window, and the
// cluster run to a 6 s horizon: the shape of the cluster package's
// node-parallel determinism scenario. The untimed hook builds the
// scenario; the op runs it on the given number of node workers and
// checks that every request ended, the cancel landed and sessions were
// uploaded.
const (
	scenarioNodes    = 6
	scenarioRequests = 6
	scenarioSpacing  = 300 * simtime.Millisecond
	scenarioCancel   = 800 * simtime.Millisecond
	scenarioHorizon  = 6 * simtime.Second
)

func clusterNodes(jobs int) func() Fixture {
	return func() Fixture {
		var c *cluster.Cluster
		var reqs []*cluster.TraceRequest
		setup := func() {
			cfg := cluster.DefaultConfig()
			cfg.Nodes = scenarioNodes
			cfg.CoresPerNode = 4
			cfg.Seed = 11
			cfg.Jobs = jobs
			c = cluster.New(cfg)
			deployAgent(c, workload.InstallOpts{Walker: true, Scale: 1e-4, Seed: 1})
			reqs = make([]*cluster.TraceRequest, scenarioRequests)
			for i := range reqs {
				purpose, name := coverage.PurposeProfiling, fmt.Sprintf("prof-%d", i)
				if i%2 == 1 {
					purpose, name = coverage.PurposeAnomaly, fmt.Sprintf("diag-%d", i)
				}
				c.Eng.Schedule(simtime.Time(i)*simtime.Time(scenarioSpacing), func(simtime.Time) {
					r, err := c.Request(name, cluster.TraceRequestSpec{App: "Agent", Purpose: purpose, Period: 400 * simtime.Millisecond})
					must(err)
					reqs[i] = r
				})
			}
			c.Eng.Schedule(simtime.Time(scenarioCancel), func(simtime.Time) {
				if r := reqs[2]; r != nil && !r.Phase.Terminal() {
					c.Cancel(r)
				}
			})
		}
		return Fixture{Untimed: setup, Op: func() {
			c.Run(scenarioHorizon)
			for i, r := range reqs {
				if r == nil || !r.Phase.Terminal() {
					panic(fmt.Sprintf("rows: cluster_nodes request %d did not finish", i))
				}
			}
			if reqs[2].Phase != cluster.PhaseCancelled || c.OSS.Puts() == 0 {
				panic(fmt.Sprintf("rows: cluster_nodes request 2 ended %s with %d puts", reqs[2].Phase, c.OSS.Puts()))
			}
		}}
	}
}
