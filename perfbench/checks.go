package main

// Independent output checks. Every function here recomputes a property from
// the raw inputs (mesh faces, mesh levels, labels, solver arrays) without
// calling the code it judges, or states a property the method must have.
// A check returns nil when the property holds and an error naming the first
// violation otherwise.

import (
	"fmt"
	"math"

	"tempart/internal/mesh"
)

// checkLabels verifies that every label lies in [0, k) and no part is empty.
func checkLabels(part []int32, n, k int) error {
	if len(part) != n {
		return fmt.Errorf("labels: %d labels for %d cells", len(part), n)
	}
	seen := make([]bool, k)
	for c, p := range part {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("labels: cell %d has label %d outside [0, %d)", c, p, k)
		}
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("labels: part %d is empty", p)
		}
	}
	return nil
}

// meshEdgeCut counts the interior faces whose two cells carry different
// labels: the dual graph has one unit-weight edge per interior face, so this
// is the edge cut, recomputed from the mesh alone.
func meshEdgeCut(m *mesh.Mesh, part []int32) int64 {
	var cut int64
	for _, f := range m.Faces[:m.NumInteriorFaces] {
		if part[f.C0] != part[f.C1] {
			cut++
		}
	}
	return cut
}

// checkEdgeCut compares a reported edge cut with the recomputed one.
func checkEdgeCut(m *mesh.Mesh, part []int32, reported int64) error {
	if got := meshEdgeCut(m, part); got != reported {
		return fmt.Errorf("edge cut: reported %d, recomputed %d from mesh faces", reported, got)
	}
	return nil
}

// levelImbalances recomputes the per-(part, level) cell census from the
// labels and mesh.Level and returns, per level, max over parts of
// count / (census[level] / k). Levels with no cells score 0.
func levelImbalances(m *mesh.Mesh, part []int32, k int) []float64 {
	levels := int(m.MaxLevel) + 1
	count := make([]int64, k*levels)
	census := make([]int64, levels)
	for c, p := range part {
		l := int(m.Level[c])
		count[int(p)*levels+l]++
		census[l]++
	}
	out := make([]float64, levels)
	for l := range out {
		if census[l] == 0 {
			continue
		}
		ideal := float64(census[l]) / float64(k)
		for p := 0; p < k; p++ {
			out[l] = math.Max(out[l], float64(count[p*levels+l])/ideal)
		}
	}
	return out
}

// worstLevelImbalance is the maximum of levelImbalances.
func worstLevelImbalance(m *mesh.Mesh, part []int32, k int) float64 {
	worst := 0.0
	for _, v := range levelImbalances(m, part, k) {
		worst = math.Max(worst, v)
	}
	return worst
}

// rbLevelBound is the imbalance of a level with census total t that
// recursive bisection guarantees as built today: each of the ceil(log2 k)
// bisections caps a side at tol·(its share of the subtree total), raised by
// up to one vertex, so the caps compound. The final count of a part is at
// most tol^d·t/k + Σ_{i<d} tol^i, a ratio to the ideal t/k of
// tol^d + (Σ_{i<d} tol^i)·k/t.
func rbLevelBound(t int64, k int, tol float64) float64 {
	d := int(math.Ceil(math.Log2(float64(k))))
	slack := 0.0
	for i := 0; i < d; i++ {
		slack += math.Pow(tol, float64(i))
	}
	return math.Pow(tol, float64(d)) + slack*float64(k)/float64(t)
}

// checkLevelImbalance verifies that the census-derived worst level
// imbalance equals the reported one (the maximum of the per-level list) and,
// when bounded (MC_TL, which balances every level), that every level stays
// within its recursive-bisection bound.
func checkLevelImbalance(m *mesh.Mesh, part []int32, k int, reported []float64, bounded bool) error {
	worst := worstLevelImbalance(m, part, k)
	rep := 0.0
	for _, v := range reported {
		rep = math.Max(rep, v)
	}
	if math.Abs(worst-rep) > 1e-9*worst {
		return fmt.Errorf("level imbalance: reported %.12g, recomputed %.12g from labels", rep, worst)
	}
	if bounded {
		return checkLevelBound(m, part, k)
	}
	return nil
}

// checkLevelBound requires every level's imbalance to stay within
// rbLevelBound.
func checkLevelBound(m *mesh.Mesh, part []int32, k int) error {
	census := m.Census()
	for l, v := range levelImbalances(m, part, k) {
		if census[l] == 0 {
			continue
		}
		if b := rbLevelBound(census[l], k, defaultTol); v > b {
			return fmt.Errorf("level %d imbalance %.4f exceeds the recursive-bisection bound %.4f", l, v, b)
		}
	}
	return nil
}

// checkSchedule states the two classical lower bounds and the trivial upper
// bound of a list schedule: critical path ≤ makespan ≤ total work, and
// makespan · cores ≥ total work.
func checkSchedule(makespan, criticalPath, totalWork int64, cores int) error {
	switch {
	case makespan < criticalPath:
		return fmt.Errorf("schedule: makespan %d below the critical path %d", makespan, criticalPath)
	case makespan > totalWork:
		return fmt.Errorf("schedule: makespan %d above the total work %d", makespan, totalWork)
	case makespan*int64(cores) < totalWork:
		return fmt.Errorf("schedule: makespan %d below total work / cores = %d / %d", makespan, totalWork, cores)
	}
	return nil
}

// migratedCells counts the cells whose label differs between two
// assignments.
func migratedCells(parent, next []int32) int {
	moved := 0
	for i := range parent {
		if parent[i] != next[i] {
			moved++
		}
	}
	return moved
}

// checkMigration compares a reported migrated-cell count with the count
// recomputed from the parent and new labels.
func checkMigration(parent, next []int32, reported int) error {
	if len(parent) != len(next) {
		return fmt.Errorf("migration: parent has %d labels, result %d", len(parent), len(next))
	}
	if got := migratedCells(parent, next); got != reported {
		return fmt.Errorf("migration: reported %d moved cells, recomputed %d", reported, got)
	}
	return nil
}

// checkBitIdentical compares named float arrays bit for bit.
func checkBitIdentical(name string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, reference has %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v, serial reference %v", name, i, got[i], want[i])
		}
	}
	return nil
}

// checkMassDrift bounds the relative mass change of a conservative scheme.
func checkMassDrift(before, after float64) error {
	if before == 0 {
		return fmt.Errorf("mass: initial mass is zero")
	}
	if d := math.Abs(after-before) / math.Abs(before); d > massTol {
		return fmt.Errorf("mass: relative drift %.3e above %.0e", d, massTol)
	}
	return nil
}
