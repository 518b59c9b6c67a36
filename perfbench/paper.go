package main

import (
	"context"
	"fmt"
	"time"

	"tempart/internal/flusim"
	"tempart/internal/graph"
	"tempart/internal/mesh"
	"tempart/internal/obs"
	"tempart/internal/partition"
	"tempart/internal/taskgraph"
)

// The paper path: dual graph, SC_OC and MC_TL recursive-bisection
// partitions, task graph, FLUSIM on the paper's 16-process × 32-core
// cluster.
const (
	paperSeed    = 1 // fixed, so the quality axes are exact constants
	clusterProcs = 16
	clusterCores = 32
	defaultTol   = 1.05 // partition.Options.ImbalanceTol default
)

var paperCluster = flusim.Cluster{NumProcs: clusterProcs, WorkersPerProc: clusterCores}

// stratOut is one strategy's outcome in a paper pass.
type stratOut struct {
	res *partition.Result
	tg  *taskgraph.TaskGraph
	sim *flusim.Result
}

// paperOut is one paper-path pass.
type paperOut struct {
	wall, cpu  time.Duration
	scoc, mctl stratOut
	// The partition calls alone.
	mctlPart, scocPart time.Duration
	// mctlAllocs is the heap bytes the MC_TL partition call allocated.
	mctlAllocs uint64
	span       int // the pass's span index (-1 untraced)
}

// paperPass runs the whole paper path once at the given parallelism
// (1 = serial baseline, 0 = library default). rec, when non-nil, is the
// program's own obs recorder, attached to the MC_TL partition call.
func paperPass(m *mesh.Mesh, k, parallelism int, tr *tracer, rec *obs.Recorder) (paperOut, error) {
	var out paperOut
	// Spans of the parallel pass carry a suffix so the layer table keeps
	// them apart from the serial baseline's.
	name, suffix := "paper.pass_serial", ""
	if parallelism != 1 {
		name, suffix = "paper.pass_par", "_par"
	}
	procOf := flusim.BlockMap(k, clusterProcs)
	t0, c0 := time.Now(), cpuTime()
	out.span = tr.begin(name, 0, -1)
	run := func(strat partition.Strategy, ctx context.Context) (stratOut, time.Duration, error) {
		var so stratOut
		var g *graph.Graph
		var err error
		tr.do("graph.build"+suffix, out.span, func() { g, err = partition.StrategyGraph(m, strat) })
		if err != nil {
			return so, 0, err
		}
		label := "partition.scoc"
		if strat == partition.MCTL {
			label = "partition.mctl"
		}
		a0 := heapAllocs()
		pt := time.Now()
		tr.do(label+suffix, out.span, func() {
			so.res, err = partition.Partition(ctx, g, k, partition.Options{Seed: paperSeed, Parallelism: parallelism})
		})
		pd := time.Since(pt)
		if strat == partition.MCTL {
			out.mctlAllocs = heapAllocs() - a0
		}
		if err != nil {
			return so, 0, err
		}
		tr.do("taskgraph.build"+suffix, out.span, func() {
			so.tg, err = taskgraph.Build(m, so.res.Part, k, taskgraph.Options{Parallelism: parallelism})
		})
		if err != nil {
			return so, 0, err
		}
		tr.do("flusim.simulate"+suffix, out.span, func() {
			so.sim, err = flusim.Simulate(so.tg, procOf, flusim.Config{Cluster: paperCluster})
		})
		return so, pd, err
	}
	var err error
	if out.scoc, out.scocPart, err = run(partition.SCOC, context.Background()); err != nil {
		return out, fmt.Errorf("paper pass SC_OC: %w", err)
	}
	if out.mctl, out.mctlPart, err = run(partition.MCTL, obs.WithRecorder(context.Background(), rec)); err != nil {
		return out, fmt.Errorf("paper pass MC_TL: %w", err)
	}
	tr.end(out.span)
	out.wall, out.cpu = time.Since(t0), cpuTime()-c0
	return out, nil
}

// exact holds the paper's quality axes of one pass: exact counts that must
// repeat identically.
type exact struct {
	makespanMCTL, makespanSCOC int64
	cutMCTL, cutSCOC           int64
	levelImbMCTL               float64
}

// checkPaperPass runs every independent check on a pass and returns its
// exact counts.
func checkPaperPass(m *mesh.Mesh, k int, p paperOut) (exact, error) {
	var ex exact
	cores := clusterProcs * clusterCores
	for _, s := range []struct {
		name string
		so   stratOut
	}{{"SC_OC", p.scoc}, {"MC_TL", p.mctl}} {
		if err := checkLabels(s.so.res.Part, m.NumCells(), k); err != nil {
			return ex, fmt.Errorf("%s: %w", s.name, err)
		}
		if err := checkEdgeCut(m, s.so.res.Part, s.so.res.EdgeCut); err != nil {
			return ex, fmt.Errorf("%s: %w", s.name, err)
		}
		sim := s.so.sim
		if err := checkSchedule(sim.Makespan, sim.CriticalPath, sim.TotalWork, cores); err != nil {
			return ex, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	ex.cutSCOC, ex.cutMCTL = p.scoc.res.EdgeCut, p.mctl.res.EdgeCut
	ex.makespanSCOC, ex.makespanMCTL = p.scoc.sim.Makespan, p.mctl.sim.Makespan
	ex.levelImbMCTL = worstLevelImbalance(m, p.mctl.res.Part, k)
	if err := checkLevelBound(m, p.mctl.res.Part, k); err != nil {
		return ex, fmt.Errorf("MC_TL: %w", err)
	}
	if sc := worstLevelImbalance(m, p.scoc.res.Part, k); ex.levelImbMCTL >= sc {
		return ex, fmt.Errorf("MC_TL worst level imbalance %.4f not below SC_OC's %.4f", ex.levelImbMCTL, sc)
	}
	if ex.makespanMCTL >= ex.makespanSCOC {
		return ex, fmt.Errorf("MC_TL makespan %d not below SC_OC's %d", ex.makespanMCTL, ex.makespanSCOC)
	}
	return ex, nil
}

// samePart reports whether two label vectors are identical.
func samePart(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
