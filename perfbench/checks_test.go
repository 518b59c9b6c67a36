package main

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/metrics"
	"tempart/internal/partition"
	"tempart/internal/taskgraph"
)

// fixture is a small CUBE mesh with its library MC_TL partition.
func fixture(t *testing.T) (*mesh.Mesh, *partition.Result, int) {
	t.Helper()
	m, err := mesh.ByName("CUBE", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	res, err := partition.PartitionMesh(context.Background(), m, k, partition.MCTL, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m, res, k
}

// flipOne returns a copy of part with the label of one cell on a domain
// boundary moved to its neighbour's part, so the cut changes.
func flipOne(t *testing.T, m *mesh.Mesh, part []int32) []int32 {
	t.Helper()
	out := append([]int32(nil), part...)
	for _, f := range m.Faces[:m.NumInteriorFaces] {
		if out[f.C0] != out[f.C1] {
			out[f.C0] = out[f.C1]
			return out
		}
	}
	t.Fatal("no cut face to flip across")
	return nil
}

func TestChecksAcceptLibraryResult(t *testing.T) {
	m, res, k := fixture(t)
	if err := checkLabels(res.Part, m.NumCells(), k); err != nil {
		t.Fatal(err)
	}
	if err := checkEdgeCut(m, res.Part, res.EdgeCut); err != nil {
		t.Fatal(err)
	}
	q := metrics.EvaluatePartition(m, res, "MC_TL")
	if err := checkLevelImbalance(m, res.Part, k, q.LevelImbalance, true); err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Build(m, res.Part, k, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := flusim.Simulate(tg, flusim.BlockMap(k, 2), flusim.Config{Cluster: flusim.Cluster{NumProcs: 2, WorkersPerProc: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSchedule(sim.Makespan, sim.CriticalPath, sim.TotalWork, 4); err != nil {
		t.Fatal(err)
	}
}

func TestCheckLabelsRejectsFlippedLabel(t *testing.T) {
	m, res, k := fixture(t)
	bad := append([]int32(nil), res.Part...)
	bad[len(bad)/2] = int32(k) // one label out of range
	if checkLabels(bad, m.NumCells(), k) == nil {
		t.Fatal("label k accepted")
	}
	bad[len(bad)/2] = -1
	if checkLabels(bad, m.NumCells(), k) == nil {
		t.Fatal("label -1 accepted")
	}
	empty := make([]int32, m.NumCells()) // every cell in part 0
	if checkLabels(empty, m.NumCells(), k) == nil {
		t.Fatal("empty parts accepted")
	}
}

func TestCheckEdgeCutRejectsFlippedLabelAndOffByOne(t *testing.T) {
	m, res, _ := fixture(t)
	if checkEdgeCut(m, flipOne(t, m, res.Part), res.EdgeCut) == nil {
		t.Fatal("a flipped label kept the reported cut")
	}
	if checkEdgeCut(m, res.Part, res.EdgeCut+1) == nil {
		t.Fatal("cut + 1 accepted")
	}
	if checkEdgeCut(m, res.Part, res.EdgeCut-1) == nil {
		t.Fatal("cut - 1 accepted")
	}
}

func TestCheckLevelImbalanceRejectsWrongReport(t *testing.T) {
	m, res, k := fixture(t)
	q := metrics.EvaluatePartition(m, res, "MC_TL")
	bad := append([]float64(nil), q.LevelImbalance...)
	bad[0] = math.Nextafter(worstLevelImbalance(m, res.Part, k), 10) * 1.001
	if err := checkLevelImbalance(m, res.Part, k, bad, false); err == nil {
		t.Fatal("a perturbed level imbalance accepted")
	}
	// A census the bisection bound cannot explain: every cell of the most
	// populated level in part 0.
	census := m.Census()
	big := 0
	for l := range census {
		if census[l] > census[big] {
			big = l
		}
	}
	skew := append([]int32(nil), res.Part...)
	for c := range skew {
		if int(m.Level[c]) == big {
			skew[c] = 0
		}
	}
	worst := worstLevelImbalance(m, skew, k)
	if err := checkLevelImbalance(m, skew, k, []float64{worst}, true); err == nil {
		t.Fatalf("level imbalance %.3f accepted under the bound %.3f", worst, rbLevelBound(census[big], k, defaultTol))
	}
}

func TestCheckScheduleRejectsImpossibleMakespans(t *testing.T) {
	if checkSchedule(99, 100, 1000, 4) == nil {
		t.Fatal("makespan below the critical path accepted")
	}
	if checkSchedule(1001, 100, 1000, 4) == nil {
		t.Fatal("makespan above the total work accepted")
	}
	if checkSchedule(249, 100, 1000, 4) == nil {
		t.Fatal("makespan below work / cores accepted")
	}
	if err := checkSchedule(250, 100, 1000, 4); err != nil {
		t.Fatal(err)
	}
}

func TestCheckMigrationRejectsWrongCount(t *testing.T) {
	m, res, _ := fixture(t)
	next := flipOne(t, m, res.Part)
	if err := checkMigration(res.Part, next, 1); err != nil {
		t.Fatal(err)
	}
	if checkMigration(res.Part, next, 0) == nil || checkMigration(res.Part, next, 2) == nil {
		t.Fatal("a migrated-cell count off by one accepted")
	}
}

func TestCheckBitIdenticalRejectsPerturbedState(t *testing.T) {
	want := []float64{1, 0.5, -2.25, 3}
	got := append([]float64(nil), want...)
	if err := checkBitIdentical("rho", got, want); err != nil {
		t.Fatal(err)
	}
	got[2] = math.Nextafter(got[2], 0) // one ulp
	if checkBitIdentical("rho", got, want) == nil {
		t.Fatal("a one-ulp perturbation accepted")
	}
	if checkMassDrift(1, 1+1e-6) == nil {
		t.Fatal("mass drift 1e-6 accepted")
	}
	if err := checkMassDrift(1, 1+1e-14); err != nil {
		t.Fatal(err)
	}
}

func TestSolverCheckRejectsPerturbedState(t *testing.T) {
	m, res, _ := fixture(t)
	s, err := newSolveRun(m, res, partition.MCTL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, _, err := s.iterate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.check(); err != nil {
		t.Fatalf("unperturbed solver rejected: %v", err)
	}
	s.sv.EulerState.E[7] = math.Nextafter(s.sv.EulerState.E[7], 0)
	if s.check() == nil {
		t.Fatal("a perturbed state value accepted")
	}
}

func TestSameResponse(t *testing.T) {
	mk := func(part []int32, buildMS float64) []byte {
		raw, _ := json.Marshal(map[string]any{
			"edge_cut": 3, "part": part,
			"eval": map[string]any{"makespan": 10, "build_ms": buildMS, "simulate_ms": 0.1, "graph_cached": false},
		})
		return raw
	}
	if err := sameResponse(mk([]int32{0, 1, 1}, 1.5), mk([]int32{0, 1, 1}, 2.5)); err != nil {
		t.Fatalf("eval timings should not count: %v", err)
	}
	if sameResponse(mk([]int32{0, 1, 0}, 1.5), mk([]int32{0, 1, 1}, 1.5)) == nil {
		t.Fatal("a flipped label accepted")
	}
}

func TestPartHashChangesWithOneLabel(t *testing.T) {
	m, res, k := fixture(t)
	g, err := partition.StrategyGraph(m, partition.MCTL)
	if err != nil {
		t.Fatal(err)
	}
	if partHash(g, res.Part, k) == partHash(g, flipOne(t, m, res.Part), k) {
		t.Fatal("part hash ignores a flipped label")
	}
}
