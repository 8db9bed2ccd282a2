package partition

import "sync"

// scratch is the reusable workspace of the partition hot path: the
// relation-sized probe and ordering arrays of Product plus the
// code-counting array of G3/ViolatingPairs. With an arena in hand those
// operations make no intermediate allocation; only the product's result
// arrays are heap-allocated.
//
// Ownership rules: an arena is single-goroutine state, borrowed from
// scratchPool for the length of one call and returned before the call
// ends. Between calls every array is back in its idle state (probe all
// −1, counts and order all 0), so arenas are shared across relations of
// any size without re-clearing.
type scratch struct {
	// probe maps row → class index in the product's left operand; −1 when
	// the row is in no stripped class. Idle state: all −1.
	probe []int32
	// cnt and pos are class-indexed counters and write cursors for the
	// per-q-class split. Idle state of cnt: all 0; pos is write-before-read.
	cnt, pos []int32
	// touched backs the list of left classes hit by the current q class.
	touched []int32
	// stageRows and stageOffs are the product's staging CSR, written
	// before the canonical reorder. Write-before-read.
	stageRows []int32
	stageOffs []int32
	// order maps first row → staged class index + 1 during the canonical
	// reorder. Idle state: all 0.
	order []int32
	// counts is the code-counting array of G3 and ViolatingPairs, indexed
	// by attribute code. Idle state: all 0.
	counts []int32
}

// ensureProduct sizes the arena for a product over an n-row relation
// whose left operand has classes stripped classes.
func (s *scratch) ensureProduct(n, classes int) {
	if len(s.probe) < n {
		s.probe = make([]int32, n)
		for i := range s.probe {
			s.probe[i] = -1
		}
		s.order = make([]int32, n)
	}
	if len(s.cnt) < classes {
		s.cnt = make([]int32, classes)
		s.pos = make([]int32, classes)
		s.touched = make([]int32, 0, classes)
	}
	if cap(s.stageRows) < n {
		s.stageRows = make([]int32, 0, n)
		s.stageOffs = make([]int32, 0, n/2+1)
	}
}

// count bumps the counting slot for code and returns the new count. The
// array at least doubles whenever it grows, so a key-like column of
// ascending codes costs O(log n) growths rather than one per new code.
func (s *scratch) count(code int) int32 {
	if code >= len(s.counts) {
		grown := make([]int32, max(code+1, 2*len(s.counts)))
		copy(grown, s.counts)
		s.counts = grown
	}
	s.counts[code]++
	return s.counts[code]
}

// resetCounts restores the counting array's idle state by zeroing exactly
// the slots the class touched.
func (s *scratch) resetCounts(codes []int, class []int32) {
	for _, row := range class {
		s.counts[codes[row]] = 0
	}
}

// scratchPool is the one arena source. sync.Pool keeps per-P free lists,
// so under the engine's bounded worker pools each worker effectively
// reuses one private arena with no cross-worker contention.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }
