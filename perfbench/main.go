// Command perfbench is the repository's benchmark. One run sets up one
// workload, then repeats a fixed round of three phases — the paper path,
// the tempartd request path and the real solve — round-robin for the given
// number of seconds, checks every output independently, and prints one JSON
// result line. See README.md for the workloads, the metrics and how to run
// it; run.sh builds it from the checkout's sources.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"time"

	"tempart/internal/mesh"
	"tempart/internal/metrics"
	"tempart/internal/obs"
	"tempart/internal/partition"
	"tempart/internal/repart"
	"tempart/internal/store"
)

// workload is one benchmark input set.
type workload struct {
	name  string
	mesh  string
	scale float64
	k     int
	// hits is the cache-hit requests each client sends per round.
	hits int
	// solveIters is the solver iterations per strategy per round.
	solveIters int
	// poolRounds sizes the pool of fresh request seeds: clients × poolRounds
	// seeds, enough for the rounds a run usually measures.
	poolRounds int
}

var workloads = []workload{
	{name: "cube-paper", mesh: "CUBE", scale: 1.0, k: 128, hits: 8, solveIters: 6, poolRounds: 2},
	{name: "nozzle-small", mesh: "PPRIME_NOZZLE", scale: 0.004, k: 64, hits: 16, solveIters: 10, poolRounds: 8},
}

const (
	clients     = 2 // closed-loop request clients
	minRounds   = 2 // measured rounds per run, at least
	canaryReps  = 3 // host canary loops per round
	driftStep   = 0.05
	runDeadline = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	procStart := time.Now()
	var (
		wlName  = flag.String("workload", "", "workload: cube-paper or nozzle-small")
		seed    = flag.Int64("seed", 1, "workload seed: picks the request path's fresh partition seeds")
		seconds = flag.Int("seconds", 40, "measurement length after set-up, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		outDir  = flag.String("out", "perfbench/out", "directory for run reports, traces and temporary stores")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *wlName {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload cube-paper|nozzle-small, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(1)
	})
	b := &bench{wl: wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, outDir: *outDir, procStart: procStart}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res != nil {
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
	if err != nil || res == nil || !res.Correct {
		os.Exit(1)
	}
}

// bench is one run's state and collected samples.
type bench struct {
	wl        *workload
	seed      int64
	seconds   time.Duration
	traced    bool
	outDir    string
	procStart time.Time

	tr     *tracer
	in     *reqInputs
	d      *daemons
	runDir string
	mctlSv *solveRun
	scocSv *solveRun
	canary *canary
	probe  *store.Store
	ref    exact

	perm              []int // permutation of the request seed pool
	attempted, failed int
	s                 map[string]*samples
	meshGen           time.Duration
}

func (b *bench) sample(name string) *samples {
	if b.s[name] == nil {
		b.s[name] = &samples{}
	}
	return b.s[name]
}

func (b *bench) run() (*result, error) {
	b.s = map[string]*samples{}
	if b.traced {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	b.runDir, err = os.MkdirTemp(b.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.runDir)
	if err := b.setup(); err != nil {
		b.shutdown()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(b.procStart)

	measureStart := time.Now()
	steal0, total0 := hostTicks()
	var last time.Duration
	for round := 1; ; round++ {
		t0 := time.Now()
		if err := b.round(round, true); err != nil {
			b.shutdown()
			return b.result(setup, false), err
		}
		// Measure at least minRounds, then stop once another round would
		// overrun by more than half of itself, so the round count holds
		// steady while the host's speed wanders.
		last = time.Since(t0)
		if round >= minRounds && time.Since(measureStart)+last/2 > b.seconds {
			break
		}
	}
	if steal1, total1 := hostTicks(); total1 > total0 {
		b.sample("host.steal_pct").add(100 * (steal1 - steal0) / (total1 - total0))
	}
	err = b.finalChecks()
	if cerr := b.shutdown(); err == nil {
		err = cerr
	}
	res := b.result(setup, err == nil)
	if werr := b.writeOutputs(res, setup); err == nil && werr != nil {
		err = werr
	}
	return res, err
}

// setup generates the inputs, starts the daemons and the fleet, opens the
// stores and runs the warm-up round (the discarded first repetition of
// every phase), checking its outputs.
func (b *bench) setup() error {
	wl := b.wl
	t0 := time.Now()
	m, err := mesh.ByName(wl.mesh, wl.scale)
	if err != nil {
		return err
	}
	b.meshGen = time.Since(t0)
	drifted, err := mesh.ByName(wl.mesh, wl.scale)
	if err != nil {
		return err
	}
	drifted.ReassignLevels(driftScore(wl.mesh), m.Census())
	in := &reqInputs{m: m, drifted: drifted, k: wl.k, hitsPerRound: wl.hits}
	if in.tmsh, err = encodeMesh(m); err != nil {
		return err
	}
	if in.dtmsh, err = encodeMesh(drifted); err != nil {
		return err
	}
	in.digest = sha256.Sum256(in.tmsh)
	in.gMCTL, err = partition.StrategyGraph(m, partition.MCTL)
	if err != nil {
		return err
	}
	b.in = in
	if b.d, err = startDaemons(b.runDir, clients); err != nil {
		return err
	}
	if b.probe, err = store.Open(store.Options{Dir: filepath.Join(b.runDir, "probe")}); err != nil {
		return err
	}
	b.canary = newCanary()
	return b.round(0, false)
}

// seedsFor returns the clients' fresh partition seeds for a round. The
// measured rounds draw from a fixed pool of clients × poolRounds seeds in an
// order the workload seed permutes: every run partitions the same seeds, so
// seed-to-seed differences in partitioning work do not move a run's
// medians, while the seed decides which client sends which request when.
// Requests past the pool get seeds past it. The warm-up round uses seeds
// outside the pool; its client 0 uses the paper seed, so its daemon result
// can be compared with the in-process library result.
func (b *bench) seedsFor(round int) []int64 {
	const poolBase, warmupSeed = 1000, 2
	if round == 0 {
		return []int64{paperSeed, warmupSeed}
	}
	pool := clients * b.wl.poolRounds
	if b.perm == nil {
		b.perm = rand.New(rand.NewSource(b.seed)).Perm(pool)
	}
	out := make([]int64, clients)
	for c := range out {
		i := (round-1)*clients + c
		if i < pool {
			out[c] = poolBase + int64(b.perm[i])
		} else {
			out[c] = poolBase + int64(i)
		}
	}
	return out
}

// round runs every phase once; measured=false is the warm-up.
func (b *bench) round(round int, measured bool) error {
	wl, in := b.wl, b.in
	add := func(name string, v float64) {
		if measured {
			b.sample(name).add(v)
		}
	}

	// Host canary.
	for i := 0; i < canaryReps; i++ {
		add("host.canary_ms", float64(b.canary.run())/1e6)
	}

	// Paper path, serial then library-default parallelism.
	var rec *obs.Recorder
	if b.traced {
		rec = obs.NewRecorder()
	}
	runtime.GC()
	ser, err := paperPass(in.m, wl.k, 1, b.tr, rec)
	b.attempted++
	if err != nil {
		b.failed++
		return err
	}
	ex, err := checkPaperPass(in.m, wl.k, ser)
	if err != nil {
		return fmt.Errorf("serial paper pass: %w", err)
	}
	if round == 0 {
		b.ref = ex
	} else if ex != b.ref {
		return fmt.Errorf("exact counts changed between repetitions: %+v, then %+v", b.ref, ex)
	}
	add("pipeline_s", ser.wall.Seconds())
	add("pipeline_cpu_s", ser.cpu.Seconds())
	add("partition.scoc_s", ser.scocPart.Seconds())
	add("partition.mctl_s", ser.mctlPart.Seconds())
	add("partition.alloc_mb", float64(ser.mctlAllocs)/(1<<20))
	if b.traced {
		var cover float64
		for _, c := range b.tr.children(ser.span) {
			cover += (c.End - c.Start).Seconds()
			add(c.Name+"@pass", (c.End - c.Start).Seconds())
		}
		add("bench.span_coverage", cover/ser.wall.Seconds())
		add("bench.traced_pass_s", ser.wall.Seconds())
		tot := rec.PhaseTotals()
		add("partition.coarsen_s", tot["partition/coarsen"].Seconds)
		add("partition.initial_s", tot["partition/initial"].Seconds)
		add("partition.refine_s", tot["partition/refine"].Seconds)
		// The same pass untraced, for the tracing overhead.
		runtime.GC()
		plain, err := paperPass(in.m, wl.k, 1, nil, nil)
		b.attempted++
		if err != nil {
			b.failed++
			return err
		}
		add("bench.untraced_pass_s", plain.wall.Seconds())
	}

	runtime.GC()
	par, err := paperPass(in.m, wl.k, 0, b.tr, nil)
	b.attempted++
	if err != nil {
		b.failed++
		return err
	}
	if !samePart(par.mctl.res.Part, ser.mctl.res.Part) || !samePart(par.scoc.res.Part, ser.scoc.res.Part) {
		return errors.New("partitions differ between parallelism 1 and the library default")
	}
	add("pipeline_par_s", par.wall.Seconds())
	add("pipeline_par_cpu_s", par.cpu.Seconds())
	add("partition.mctl_par_s", par.mctlPart.Seconds())

	// Request path.
	runtime.GC()
	rr, err := requestPhase(b.d, in, b.seedsFor(round), b.tr)
	if rr != nil {
		b.attempted += rr.attempts
		b.failed += rr.failures
	}
	if err != nil {
		return fmt.Errorf("request phase: %w", err)
	}
	if err := checkRequestRound(in, rr); err != nil {
		return fmt.Errorf("request phase: %w", err)
	}
	if round == 0 && !samePart(rr.clients[0].coldParsed.Part, ser.mctl.res.Part) {
		return errors.New("daemon cold part vector differs from the in-process partition of the same inputs")
	}
	if round == 0 && rr.clients[0].coldParsed.PartHash != partHash(in.gMCTL, ser.mctl.res.Part, wl.k) {
		return errors.New("daemon part_hash differs from the SHA-256 of the in-process result's TPRT encoding")
	}
	b.addRequestSamples(rr, add)

	// Real solve: MC_TL and SC_OC iterations interleaved.
	if round == 0 {
		if b.mctlSv, err = newSolveRun(in.m, ser.mctl.res, partition.MCTL); err != nil {
			return err
		}
		if b.scocSv, err = newSolveRun(in.m, ser.scoc.res, partition.SCOC); err != nil {
			return err
		}
	}
	runtime.GC()
	for i := 0; i < wl.solveIters; i++ {
		for _, sv := range []struct {
			tag string
			run *solveRun
		}{{"mctl", b.mctlSv}, {"scoc", b.scocSv}} {
			sp := b.tr.begin("solver.iteration_"+sv.tag, 0, -1)
			wall, cpu, busy, err := sv.run.iterate()
			b.tr.end(sp)
			b.attempted++
			if err != nil {
				b.failed++
				return fmt.Errorf("solver %s: %w", sv.tag, err)
			}
			idle := time.Duration(solveWorkers)*wall - busy
			add("runtime.busy_ms_"+sv.tag, float64(busy)/1e6)
			add("runtime.idle_ms_"+sv.tag, float64(idle)/1e6)
			if sv.tag == "mctl" {
				add("solve_iter_ms", float64(wall)/1e6)
				add("solve_iter_cpu_ms", float64(cpu)/1e6)
				add("fv.updates_per_busy_us", float64(sv.run.faceObjs+sv.run.cellObjs)/(float64(busy)/1e3))
			}
		}
	}
	if round == 0 {
		q := metrics.EvaluatePartition(in.m, ser.mctl.res, "MC_TL")
		if err := checkLevelImbalance(in.m, ser.mctl.res.Part, wl.k, q.LevelImbalance, true); err != nil {
			return fmt.Errorf("library MC_TL quality: %w", err)
		}
	}

	if b.traced {
		b.layerProbes(ser, rr, add)
	}
	return nil
}

// addRequestSamples turns a request phase into samples.
func (b *bench) addRequestSamples(rr *reqRound, add func(string, float64)) {
	hits := 0
	for _, cr := range rr.clients {
		add("cold_ms", ms(cr.cold.latency))
		add("repart_ms", ms(cr.repart.latency))
		add("fleet_cold_ms", ms(cr.fleet.latency))
		add("server.compute_ms", elapsedMS(cr.cold.header))
		add("server.overhead_ms", ms(cr.cold.latency)-elapsedMS(cr.cold.header))
		add("server.response_kb", float64(len(cr.cold.body))/1024)
		for _, h := range cr.hits {
			add("server.hit_ms", ms(h.latency))
		}
		hits += len(cr.hits)
	}
	add("hit_rps", float64(hits)/rr.wall["server.hits"].Seconds())
	add("hit_per_cpu_s", float64(hits)/rr.cpu["server.hits"].Seconds())
	n := float64(len(rr.clients))
	add("cold_cpu_ms", ms(rr.cpu["server.cold"])/n)
	add("repart_cpu_ms", ms(rr.cpu["server.repart"])/n)
	add("fleet_cold_cpu_ms", ms(rr.cpu["server.fleet_cold"])/n)
	// Counters scraped from the daemons' /metrics around the phase.
	waitSum := rr.after.delta(rr.before, "tempartd_admission_wait_seconds_sum")
	waitN := rr.after.delta(rr.before, "tempartd_admission_wait_seconds_count")
	if waitN > 0 {
		add("server.admission_wait_ms", 1000*waitSum/waitN)
	}
	add("store.bytes_written", rr.after.delta(rr.before, "tempartd_store_put_bytes_total"))
	// Subtree RPCs as the receiving members timed them.
	var rpcSum, rpcN float64
	for i := range rr.fafter {
		rpcSum += rr.fafter[i].delta(rr.fbefore[i], `tempartd_http_request_duration_seconds_sum{endpoint="/v1/internal/subtree"}`)
		rpcN += rr.fafter[i].delta(rr.fbefore[i], `tempartd_http_request_duration_seconds_count{endpoint="/v1/internal/subtree"}`)
	}
	add("cluster.subtree_rpcs", rpcN/float64(len(rr.clients)))
	if rpcN > 0 {
		add("cluster.rpc_ms", 1000*rpcSum/rpcN)
	} else {
		add("cluster.rpc_ms", 0)
	}
}

// layerProbes times the layers the three phases reach only inside the
// daemon, through their public functions in-process (traced runs only).
func (b *bench) layerProbes(ser paperOut, rr *reqRound, add func(string, float64)) {
	in := b.in
	runtime.GC()
	t0 := time.Now()
	b.tr.do("metrics.quality", -1, func() { metrics.EvaluatePartition(in.m, ser.mctl.res, "MC_TL") })
	add("metrics.quality_s", time.Since(t0).Seconds())

	gd, err := partition.StrategyGraph(in.drifted, partition.MCTL)
	if err == nil {
		var res *repart.Result
		t0 = time.Now()
		b.tr.do("repart.repartition", -1, func() {
			res, err = repart.Repartition(context.Background(), gd, partition.NewResult(gd, ser.mctl.res.Part, b.wl.k),
				repart.Options{Part: partition.Options{Seed: paperSeed, Parallelism: 1}, MigBytes: repart.MeshMigrationBytes(in.drifted)})
		})
		if err == nil {
			add("repart.repartition_s", time.Since(t0).Seconds())
			add("repart.migrated_cells", float64(res.Stats.MovedCells))
		}
	}
	for _, cr := range rr.clients {
		var d time.Duration
		b.tr.do("store.commit", -1, func() { d, err = storeProbe(b.probe, cr.cold.body, b.attempted) })
		if err == nil {
			add("store.commit_ms", ms(d))
		}
	}
}

// finalChecks replays the measured solver iterations with the serial
// reference.
func (b *bench) finalChecks() error {
	if err := b.mctlSv.check(); err != nil {
		return fmt.Errorf("MC_TL solve: %w", err)
	}
	if err := b.scocSv.check(); err != nil {
		return fmt.Errorf("SC_OC solve: %w", err)
	}
	return nil
}

func (b *bench) shutdown() error {
	var err error
	if b.d != nil {
		err = b.d.close()
		b.d = nil
	}
	if b.probe != nil {
		if cerr := b.probe.Close(); err == nil {
			err = cerr
		}
		b.probe = nil
	}
	return err
}

func (b *bench) median(name string) float64 {
	if s := b.s[name]; s != nil {
		return s.median()
	}
	return 0
}

// result assembles the JSON result line: end-to-end metrics untraced,
// per-layer metrics traced.
func (b *bench) result(setup time.Duration, correct bool) *result {
	res := &result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if b.attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !b.traced {
		// Timings are process CPU time (see README: wall-clock time is not
		// steady on a host whose hypervisor steals vCPU time in bursts); the
		// wall-clock twins are per-layer metrics of the traced run.
		put("setup_s", setup.Seconds(), "s")
		put("pipeline_cpu_s", b.median("pipeline_cpu_s"), "s")
		put("pipeline_par_cpu_s", b.median("pipeline_par_cpu_s"), "s")
		put("makespan_mctl_tu", float64(b.ref.makespanMCTL), "tu")
		put("makespan_scoc_tu", float64(b.ref.makespanSCOC), "tu")
		put("edge_cut_mctl", float64(b.ref.cutMCTL), "count")
		put("edge_cut_scoc", float64(b.ref.cutSCOC), "count")
		put("level_imbalance_mctl", b.ref.levelImbMCTL, "ratio")
		put("cold_cpu_ms", b.median("cold_cpu_ms"), "ms")
		put("hit_per_cpu_s", b.median("hit_per_cpu_s"), "1/s")
		put("repart_cpu_ms", b.median("repart_cpu_ms"), "ms")
		put("fleet_cold_cpu_ms", b.median("fleet_cold_cpu_ms"), "ms")
		put("solve_iter_cpu_ms", b.median("solve_iter_cpu_ms"), "ms")
		put("peak_rss_mb", peakRSSMB(), "MB")
		return res
	}
	put("wall.pipeline_s", b.median("pipeline_s"), "s")
	put("wall.pipeline_par_s", b.median("pipeline_par_s"), "s")
	put("wall.cold_ms", b.median("cold_ms"), "ms")
	put("wall.hit_rps", b.median("hit_rps"), "1/s")
	put("wall.repart_ms", b.median("repart_ms"), "ms")
	put("wall.fleet_cold_ms", b.median("fleet_cold_ms"), "ms")
	put("wall.solve_iter_ms", b.median("solve_iter_ms"), "ms")
	in := b.in
	var faces, cells, edges, tasks, deps float64
	if in != nil {
		faces, cells, edges = float64(in.m.NumFaces()), float64(in.m.NumCells()), float64(in.gMCTL.NumEdges())
	}
	if b.mctlSv != nil {
		tasks, deps = float64(b.mctlSv.sv.TG.NumTasks()), float64(b.mctlSv.sv.TG.NumDeps())
	}
	put("mesh.gen_s", b.meshGen.Seconds(), "s")
	put("mesh.cells", cells, "count")
	put("mesh.faces", faces, "count")
	put("graph.build_s", b.median("graph.build@pass"), "s")
	put("graph.edges", edges, "count")
	for _, n := range []string{"partition.scoc_s", "partition.mctl_s", "partition.mctl_par_s",
		"partition.coarsen_s", "partition.initial_s", "partition.refine_s", "metrics.quality_s",
		"repart.repartition_s"} {
		put(n, b.median(n), "s")
	}
	put("partition.alloc_mb", b.median("partition.alloc_mb"), "MB")
	put("taskgraph.build_s", b.median("taskgraph.build@pass"), "s")
	put("taskgraph.tasks", tasks, "count")
	put("taskgraph.deps", deps, "count")
	put("flusim.simulate_s", b.median("flusim.simulate@pass"), "s")
	for _, n := range []string{"server.compute_ms", "server.overhead_ms", "server.admission_wait_ms",
		"server.hit_ms", "store.commit_ms", "cluster.rpc_ms", "host.canary_ms"} {
		put(n, b.median(n), "ms")
	}
	put("server.response_kb", b.median("server.response_kb"), "KiB")
	put("store.bytes_written", b.median("store.bytes_written"), "bytes")
	put("repart.migrated_cells", b.median("repart.migrated_cells"), "count")
	put("cluster.subtree_rpcs", b.median("cluster.subtree_rpcs"), "count")
	for _, tag := range []string{"mctl", "scoc"} {
		put("runtime.busy_ms_"+tag, b.median("runtime.busy_ms_"+tag), "ms")
		put("runtime.idle_ms_"+tag, b.median("runtime.idle_ms_"+tag), "ms")
	}
	if b.mctlSv != nil {
		put("fv.face_updates", float64(b.mctlSv.faceObjs), "count")
		put("fv.cell_updates", float64(b.mctlSv.cellObjs), "count")
	}
	put("fv.updates_per_busy_us", b.median("fv.updates_per_busy_us"), "1/us")
	put("bench.trace_overhead_s", b.median("bench.traced_pass_s")-b.median("bench.untraced_pass_s"), "s")
	put("bench.span_coverage", b.median("bench.span_coverage"), "ratio")
	put("host.steal_pct", b.median("host.steal_pct"), "%")
	return res
}

// writeOutputs writes the run report (every sample's median and count, and
// the host canary) and, for traced runs, the Chrome trace and layer table.
func (b *bench) writeOutputs(res *result, setup time.Duration) error {
	stem := fmt.Sprintf("%s-seed%d", b.wl.name, b.seed)
	type stat struct {
		Median float64 `json:"median"`
		N      int     `json:"n"`
	}
	rep := struct {
		Workload   string          `json:"workload"`
		Seed       int64           `json:"seed"`
		Traced     bool            `json:"traced"`
		GOMAXPROCS int             `json:"gomaxprocs"`
		SetupS     float64         `json:"setup_s"`
		Result     *result         `json:"result"`
		Samples    map[string]stat `json:"samples"`
	}{Workload: b.wl.name, Seed: b.seed, Traced: b.traced, GOMAXPROCS: runtime.GOMAXPROCS(0),
		SetupS: setup.Seconds(), Result: res, Samples: map[string]stat{}}
	for n, s := range b.s {
		rep.Samples[n] = stat{Median: s.median(), N: len(*s)}
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.outDir, "report-"+stem+"-trace"+strconv.FormatBool(b.traced)+".json"), raw, 0o644); err != nil {
		return err
	}
	if !b.traced {
		return nil
	}
	if err := b.tr.writeChrome(filepath.Join(b.outDir, "trace-"+stem+".json")); err != nil {
		return err
	}
	table := fmt.Sprintf("# %s, seed %d: traced layer table\n\n%s\nPer-layer metrics:\n\n| metric | value | unit |\n|---|---:|---|\n",
		b.wl.name, b.seed, b.tr.layerTable())
	for _, n := range sortedKeys(res.Metrics) {
		table += fmt.Sprintf("| %s | %.6g | %s |\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return os.WriteFile(filepath.Join(b.outDir, "layers-"+stem+".md"), []byte(table), 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapAllocs reads the monotone count of bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

func encodeMesh(m *mesh.Mesh) ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// driftScore is the level-drifted refinement score of the repartition
// input: the generator's hot regions moved downstream by driftStep of the
// x extent.
func driftScore(name string) func(x, y, z float64) float64 { return driftScoreStep(name, driftStep) }

func driftScoreStep(name string, driftStep float64) func(x, y, z float64) float64 {
	switch name {
	case "CUBE":
		h := [][3]float64{{0.22, 0.25, 0.25}, {0.75, 0.55, 0.5}, {0.35, 0.8, 0.72}}
		return func(x, y, z float64) float64 {
			best := math.Inf(1)
			for _, p := range h {
				best = math.Min(best, math.Sqrt(sq(x-p[0]-driftStep)+sq(y-p[1])+sq(z-p[2])))
			}
			return best
		}
	default: // PPRIME_NOZZLE: the jet, its exit moved downstream
		exit := 0.9 + 3*driftStep
		return func(x, y, z float64) float64 {
			d := distToSegment(x, y, z, exit, 0.5, 0.5, exit+1.3, 0.5, 0.5)
			return math.Max(0, d-0.08*math.Max(0, x-exit))
		}
	}
}

func sq(v float64) float64 { return v * v }

func distToSegment(x, y, z, ax, ay, az, bx, by, bz float64) float64 {
	dx, dy, dz := bx-ax, by-ay, bz-az
	t := ((x-ax)*dx + (y-ay)*dy + (z-az)*dz) / (dx*dx + dy*dy + dz*dz)
	t = math.Max(0, math.Min(1, t))
	return math.Sqrt(sq(x-ax-t*dx) + sq(y-ay-t*dy) + sq(z-az-t*dz))
}
