// Command e2ebench is kgexplore's end-to-end benchmark. It spawns the real
// kgserver binary, drives its HTTP API from one closed-loop load generator
// and checks every exact answer against ground truth it computes itself
// from the same seeded kggen data. With -trace 1 it instead replays the same
// inputs in-process through each layer's public functions and reports
// per-layer figures computed from spans.
//
//	e2ebench -server kgserver -workload explore -seed 1 -seconds 12 -trace 0
//
// The last output line is one JSON object with the keys correct, attempted,
// failed and metrics; the lines before it give the run's metadata and every
// metric by name with its unit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

var workloads = []string{"explore", "sparql-sharded", "ingest-mixed"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	wl := flag.String("workload", "", "workload: explore, sparql-sharded or ingest-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 12, "seconds to measure")
	trace := flag.Int("trace", 0, "1: traced in-process run with per-layer metrics")
	serverBin := flag.String("server", "", "kgserver binary")
	work := flag.String("work", "", "scratch directory (removed afterwards)")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *wl
	}
	if !known {
		return fmt.Errorf("unknown -workload %q (want one of %v)", *wl, workloads)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *work == "" || (*trace == 0 && *serverBin == "") {
		return errors.New("need -seconds >= 1, -trace 0|1, -work, and -server for untraced runs")
	}
	dir, err := os.MkdirTemp(*work, *wl+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	env := &Env{Seed: *seed, Seconds: time.Duration(*seconds) * time.Second, ServerBin: *serverBin, Work: dir}

	var res Result
	var meta map[string]any
	if *trace == 1 {
		res, meta, err = traced(env, *wl)
	} else {
		res, meta, err = untraced(env, *wl)
	}
	if err != nil {
		return err
	}
	meta["workload"] = *wl
	meta["seed"] = *seed
	meta["trace"] = *trace
	meta["nproc"] = runtime.NumCPU()
	meta["gomaxprocs_client"] = runtime.GOMAXPROCS(0)
	meta["gomaxprocs_server"] = serverProcs()
	meta["go_version"] = runtime.Version()
	meta["budget_ms"] = budgetMS
	return report(res, meta)
}

// serverProcs is the GOMAXPROCS the spawned server runs with: the
// inherited GOMAXPROCS variable, else the Go default of one per CPU.
func serverProcs() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

func report(res Result, meta map[string]any) error {
	m, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Println(string(m))
	// Every metric by name and unit: the result's, then those the meta
	// reports beside them.
	all := map[string]Metric{}
	for n, v := range meta {
		if m, ok := v.(Metric); ok {
			all[n] = m
		}
	}
	for n, m := range res.Metrics {
		all[n] = m
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-22s %14.6g %s\n", n, all[n].Value, all[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// untraced runs a workload against a spawned server and computes the
// end-to-end metrics.
func untraced(env *Env, wl string) (Result, map[string]any, error) {
	var (
		srv     *Served
		t       *Tally
		meta    map[string]any
		triples int
		ingest  *IngestStats
		err     error
	)
	switch wl {
	case "explore", "sparql-sharded":
		ds, err := generate(exploreScale)
		if err != nil {
			return Result{}, nil, err
		}
		triples = ds.Store.NumTriples()
		path := filepath.Join(env.Work, "data.kgs")
		if err := writeSnapshot(path, ds.Store, fmt.Sprintf("dbpedia-sim@%g", exploreScale)); err != nil {
			return Result{}, nil, err
		}
		if wl == "explore" {
			sessions := exploreSessions(ds, env.Seed, explorePaths)
			if srv, err = serve(env, []string{"-snapshot", path}, 1, nil); err != nil {
				return Result{}, nil, err
			}
			defer srv.Stop()
			t, meta = runExplore(env, srv, sessions)
		} else {
			qs, _ := sparqlQueries(ds, env.Seed)
			args := []string{"-snapshot", path, "-shards", strconv.Itoa(shardCount)}
			if srv, err = serve(env, args, 1, nil); err != nil {
				return Result{}, nil, err
			}
			defer srv.Stop()
			t, meta = runSPARQL(env, srv, qs)
			misnamed := 0
			for _, q := range qs {
				if q.Union != nil && printerMisnames(q.Union) {
					misnamed++
				}
			}
			meta["unions_misnamed_by_printer"] = misnamed
		}
	case "ingest-mixed":
		full, err := generate(ingestScale)
		if err != nil {
			return Result{}, nil, err
		}
		p, err := ingestPlan(full, env.Seed)
		if err != nil {
			return Result{}, nil, err
		}
		if err := p.exploreReads(env.Seed, ingestPaths); err != nil {
			return Result{}, nil, err
		}
		triples = p.Base.Store.NumTriples()
		path := filepath.Join(env.Work, "base.kgs")
		if err := writeSnapshot(path, p.Base.Store, fmt.Sprintf("dbpedia-sim@%g minus held-out", ingestScale)); err != nil {
			return Result{}, nil, err
		}
		args, reset := ingestArgs(env, path)
		if srv, err = serve(env, args, 2, reset); err != nil {
			return Result{}, nil, err
		}
		defer srv.Stop()
		if t, ingest, meta, err = runIngest(env, srv, p); err != nil {
			return Result{}, nil, err
		}
	}
	rss, err := srv.PeakRSSMB()
	if err != nil {
		return Result{}, nil, err
	}
	if err := srv.finish(); err != nil {
		return Result{}, nil, err
	}
	measured := meta["measured_s"].(float64)
	res, err := e2eResult(t, srv.SetupS, rss, measured, meta)
	if err != nil {
		return Result{}, nil, err
	}
	meta["triples"] = triples
	if ingest != nil {
		ack, beyond, ok := Percentile(ingest.AckMS, 0.9)
		if !ok {
			return Result{}, nil, fmt.Errorf("ingest ack p90 has only %d samples beyond it", beyond)
		}
		meta["ingest_ops_per_s"] = Metric{float64(ingest.Ops) / measured, "1/s"}
		meta["ingest_ack_p90_ms"] = Metric{ack, "ms"}
		meta["ingest_ack_samples"] = len(ingest.AckMS)
	}
	return res, meta, nil
}

// quartiles are the first quartile, median and third quartile of xs.
func quartiles(xs []float64) [3]float64 {
	q1, _, _ := Percentile(xs, 0.25)
	q3, _, _ := Percentile(xs, 0.75)
	return [3]float64{q1, Median(xs), q3}
}

// e2eResult turns a tally into the end-to-end metrics. Every failure must
// be a known printer defect for the run to count as correct.
func e2eResult(t *Tally, setupS []float64, rssMB, measured float64, meta map[string]any) (Result, error) {
	p50e, _, _ := Percentile(t.ExactMS, 0.5)
	p90e, be, ok1 := Percentile(t.ExactMS, 0.9)
	p50o, _, _ := Percentile(t.OnlineMS, 0.5)
	p90o, bo, ok2 := Percentile(t.OnlineMS, 0.9)
	if !ok1 || !ok2 {
		return Result{}, fmt.Errorf("p90 needs %d samples beyond it: exact has %d, online %d", minBeyond, be, bo)
	}
	if len(t.RelCI) == 0 || t.CoverTotal == 0 || t.Attempted == 0 {
		return Result{}, errors.New("no sampled online answers to score")
	}
	m := map[string]Metric{
		"setup_s":          {Median(setupS), "s"},
		"exact_p50_ms":     {p50e, "ms"},
		"exact_p90_ms":     {p90e, "ms"},
		"online_p50_ms":    {p50o, "ms"},
		"online_p90_ms":    {p90o, "ms"},
		"online_relci_p50": {Median(t.RelCI), "ratio"},
		"ci_coverage":      {float64(t.Covered) / float64(t.CoverTotal), "ratio"},
		"ok_ratio":         {1 - float64(t.Failed)/float64(t.Attempted), "ratio"},
		"ops_per_s":        {float64(t.Attempted-t.Failed) / measured, "1/s"},
		"peak_rss_mb":      {rssMB, "MiB"},
	}
	meta["samples"] = map[string]int{"exact": len(t.ExactMS), "online": len(t.OnlineMS),
		"exact_beyond_p90": be, "online_beyond_p90": bo, "relci": len(t.RelCI),
		"coverage_bars": t.CoverTotal, "setup": len(setupS), "online_exact": t.OnlineExact}
	meta["error_ratio"] = float64(t.Failed) / float64(t.Attempted)
	meta["failed_known_printer_defect"] = t.KnownDefect
	meta["failures"] = t.Failures
	meta["setup_s_all"] = setupS
	meta["relci_quartiles"] = quartiles(t.RelCI)
	meta["server_overhead_ms_p50"] = Median(t.OverheadMS)
	return Result{
		Correct:   t.Failed == t.KnownDefect,
		Attempted: t.Attempted,
		Failed:    t.Failed,
		Metrics:   m,
	}, nil
}
