// Command existdecode is the offline decoder: it reconstructs execution
// from a serialized session (as uploaded to the object store or written by
// existd -dump), consulting the binary repository — here, re-synthesizing
// the workload's binary from its profile name and seed, since synthetic
// binaries are deterministic in both.
//
// The file holds one session in the packed v2 encoding that Marshal
// writes; existdecode reads it whole and parses it with UnmarshalSession.
//
// Usage:
//
//	existd -app mc -dump /tmp/mc.sess
//	existdecode -app mc -seed 1 -in /tmp/mc.sess
//	existdecode -app mc -seed 1 -in /tmp/mc.sess -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"exist/internal/decode"
	"exist/internal/node"
	"exist/internal/report"
	"exist/internal/trace"
	"exist/internal/workload"
)

func main() {
	var (
		appName = flag.String("app", "", "workload profile the session traced")
		seed    = flag.Uint64("seed", 1, "seed the binary was synthesized with")
		in      = flag.String("in", "", "serialized session file")
		top     = flag.Int("top", 10, "how many hottest functions to print")
		stats   = flag.Bool("stats", false, "print wire-format statistics for the session")
	)
	flag.Parse()
	if *appName == "" || *in == "" {
		fmt.Fprintln(os.Stderr, "existdecode: -app and -in are required")
		os.Exit(2)
	}
	p, err := workload.ByName(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sess, err := trace.UnmarshalSession(blob)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unmarshal:", err)
		os.Exit(1)
	}
	fmt.Printf("session %q: workload=%s node=%q window=%v cores=%d records=%d space=%.1fMB\n",
		sess.ID, sess.Workload, sess.Node, sess.Duration(), len(sess.Cores),
		len(sess.Switches.Records), sess.SpaceMB())

	if *stats {
		wireBytes := int64(len(blob))
		v1Bytes := int64(trace.V1Size(sess))
		ratio := float64(v1Bytes) / float64(wireBytes)
		fmt.Printf("wire bytes:          %d\n", wireBytes)
		fmt.Printf("v1-equivalent bytes: %d\n", v1Bytes)
		fmt.Printf("compression ratio:   %.2fx\n", ratio)
		for i := range sess.Cores {
			fmt.Println(coreLine(&sess.Cores[i]))
		}
	}

	prog := node.Program(p, *seed)
	rec := decode.Decode(sess, prog)
	fmt.Print(report.Build(rec, prog, sess, report.Options{TopFuncs: *top}))

	if msg := degradedReport(sess, rec); msg != "" {
		fmt.Fprint(os.Stderr, msg)
		os.Exit(1)
	}
}

// degradedReport returns a non-empty diagnostic when the session carries
// cores but decodes to zero usable ones — a degraded artifact (truncated
// upload, wrong binary seed, fully-dropped buffers). Pipelines get a
// non-zero exit instead of a silently empty profile.
func degradedReport(sess *trace.Session, rec *decode.Result) string {
	if len(sess.Cores) == 0 || rec.Events > 0 {
		return ""
	}
	msg := fmt.Sprintf("existdecode: degraded session: 0 usable cores (%d present, %d decode notes)\n",
		len(sess.Cores), len(rec.Errors))
	for i := range sess.Cores {
		msg += "  " + coreLine(&sess.Cores[i]) + "\n"
	}
	return msg
}

// coreLine describes one core's buffer for -stats and the degraded report.
func coreLine(c *trace.CoreTrace) string {
	return fmt.Sprintf("core %d: %d trace bytes, %d dropped (wrapped=%v stopped=%v)",
		c.Core, len(c.Data), c.DroppedBytes, c.Wrapped, c.Stopped)
}
