// Delta refinement: maintaining a stripped partition under row appends.
//
// An appended tuple can only EXTEND the equivalence class its X-value
// already has, PROMOTE a stripped singleton to a visible class, or START
// a new class — it can never merge or reorder the classes that existing
// rows induce. AppendRefine exploits that: new rows are dictionary-coded
// against the incrementally maintained per-value code table (O(delta)
// map work instead of re-coding the whole column), only the classes that
// receive new rows are touched, and the CSR arrays are rebuilt by one
// linear merge into a double-buffered arena — O(||π|| + delta) copying
// with no re-sort, no re-hash of old rows, and the exact canonical form
// Build/FromCodes produce (classes by first row, rows ascending).
package partition

import (
	"encoding/binary"
	"sort"

	"deptree/internal/attrset"
	"deptree/internal/relation"
)

// Refiner maintains the stripped partition of one attribute set under
// appends. It holds one relation.Dict per column of X, the tuple table
// from column codes to class codes when X has several columns, and
// per-code counters (size, first row, class slot) — O(|π_X|) state that
// retains no per-row codes, so a refiner over a low-cardinality column
// stays small no matter how many rows stream in.
//
// Lifetime contract: AppendRefine returns a fresh *Partition backed by
// the refiner's spare arena; the partition returned by the PREVIOUS
// AppendRefine call remains valid until the next call returns, at which
// point its backing arrays are recycled. Streaming callers upgrade their
// caches on every batch, so nothing retains a two-generation-old
// partition. A Refiner is not safe for concurrent use.
type Refiner struct {
	cols  []int
	dicts []relation.Dict
	// tuples maps the fixed-width tuple of column codes (4 bytes each) to
	// its class code; nil for a single column, whose column code is the
	// class code.
	tuples map[string]int32
	// Per-code state, indexed by code: class size, first (smallest) row,
	// and the code's class index in the current partition (-1 while the
	// code is a stripped singleton).
	count   []int32
	first   []int32
	classOf []int32
	// codeOf is the inverse of classOf for stripped classes: the code of
	// class i in the current partition.
	codeOf []int32
	part   *Partition
	// touched lists the class indices IN THE CURRENT PARTITION that the
	// last AppendRefine extended, promoted or created — the only classes
	// incremental revalidation has to look at.
	touched []int
	// Double-buffered arenas: the next refine writes into the spare
	// arrays, and the outgoing partition's arrays become the new spare.
	spareRows []int32
	spareOffs []int32
	spareCode []int32
	tupleBuf  []byte
}

// birth is a class entering the stripped cover this batch: either an old
// singleton promoted by delta rows or a class born entirely in the batch.
type birth struct {
	code  int32
	first int32
}

// NewRefiner builds the partition of x over r from scratch and prepares
// the incremental state for subsequent AppendRefine calls.
func NewRefiner(r *relation.Relation, x attrset.Set) *Refiner {
	cols := x.Cols()
	f := &Refiner{cols: cols, dicts: make([]relation.Dict, len(cols))}
	if len(cols) != 1 {
		f.tuples = make(map[string]int32)
	}
	n := r.Rows()
	checkRows(n)
	codes := make([]int32, n)
	for row := 0; row < n; row++ {
		codes[row] = f.codeOfRow(r, row)
	}
	f.part = f.buildInitial(codes, n)
	f.part.BuildBits()
	return f
}

// Partition returns the current partition. See the lifetime contract on
// Refiner for how long it stays valid across AppendRefine calls.
func (f *Refiner) Partition() *Partition { return f.part }

// Touched returns the class indices (in the current partition) that the
// last AppendRefine changed. The slice is reused across calls.
func (f *Refiner) Touched() []int { return f.touched }

// Cardinality returns |π_X| — maintained O(1), so cardinality-based
// revalidation (an exact FD X→A holds iff |π_X| = |π_X∪A|) costs nothing
// per rule beyond the shared delta coding.
func (f *Refiner) Cardinality() int { return len(f.count) }

// codeOfRow dictionary-codes one row, assigning fresh codes in first-
// appearance order (which keeps code order equal to first-row order, the
// invariant canonical CSR emission relies on).
func (f *Refiner) codeOfRow(r *relation.Relation, row int) int32 {
	var code int32
	if f.tuples == nil {
		code = int32(f.dicts[0].Code(r.Value(row, f.cols[0])))
	} else {
		f.tupleBuf = f.tupleBuf[:0]
		for i, c := range f.cols {
			f.tupleBuf = binary.LittleEndian.AppendUint32(f.tupleBuf, uint32(f.dicts[i].Code(r.Value(row, c))))
		}
		var ok bool
		if code, ok = f.tuples[string(f.tupleBuf)]; !ok {
			code = int32(len(f.tuples))
			f.tuples[string(f.tupleBuf)] = code
		}
	}
	if int(code) == len(f.count) {
		f.count = append(f.count, 0)
		f.first = append(f.first, int32(row))
		f.classOf = append(f.classOf, -1)
	}
	return code
}

// buildInitial is FromCodes plus the classOf/codeOf bookkeeping.
func (f *Refiner) buildInitial(codes []int32, n int) *Partition {
	p := &Partition{n: n, card: len(f.count)}
	for _, c := range codes {
		f.count[c]++
	}
	covered, stripped := 0, 0
	for _, cnt := range f.count {
		if cnt > 1 {
			stripped++
			covered += int(cnt)
		}
	}
	if stripped == 0 {
		return p
	}
	p.rows = make([]int32, covered)
	p.offsets = make([]int32, stripped+1)
	f.codeOf = make([]int32, stripped)
	cursor := make([]int32, len(f.count))
	pos, ci := int32(0), 0
	for c := range f.count {
		if f.count[c] > 1 {
			p.offsets[ci] = pos
			f.classOf[c] = int32(ci)
			f.codeOf[ci] = int32(c)
			cursor[c] = pos
			pos += f.count[c]
			ci++
		} else {
			cursor[c] = -1
		}
	}
	p.offsets[stripped] = pos
	for row, c := range codes {
		if cur := cursor[c]; cur >= 0 {
			p.rows[cur] = int32(row)
			cursor[c]++
		}
	}
	return p
}

// AppendRefine folds rows [oldRows, r.Rows()) of r into the partition
// and returns the refined partition. Only delta rows are coded; the CSR
// arrays are rebuilt by a single merge of the surviving class order with
// the (first-row-sorted) promoted and newborn classes, and the
// bit-parallel mirror is rebuilt when the refined partition still
// qualifies for it.
func (f *Refiner) AppendRefine(r *relation.Relation, oldRows int) *Partition {
	n := r.Rows()
	checkRows(n)
	delta := n - oldRows
	f.touched = f.touched[:0]
	if delta <= 0 {
		return f.part
	}
	// Code the delta and bucket its rows per code, recording each code's
	// pre-batch size the first time the batch touches it.
	deltaRows := make(map[int32][]int32)
	prevCount := make(map[int32]int32)
	var order []int32 // batch first-touch order, for deterministic iteration
	for row := oldRows; row < n; row++ {
		c := f.codeOfRow(r, row)
		if _, seen := prevCount[c]; !seen {
			prevCount[c] = f.count[c]
			order = append(order, c)
		}
		deltaRows[c] = append(deltaRows[c], int32(row))
		f.count[c]++
	}
	var births []birth
	growth := 0 // rows added to the stripped cover
	for _, c := range order {
		switch {
		case f.classOf[c] >= 0:
			growth += len(deltaRows[c])
		case f.count[c] > 1:
			births = append(births, birth{code: c, first: f.first[c]})
			growth += int(f.count[c]) // old singleton (if any) + delta rows
		}
	}
	old := f.part
	if growth == 0 {
		// Every delta row started its own singleton: the stripped cover
		// is unchanged and only n (and the cardinality) move.
		p := &Partition{rows: old.rows, offsets: old.offsets, n: n, card: len(f.count)}
		p.BuildBits()
		f.part = p
		return p
	}
	sort.Slice(births, func(i, j int) bool { return births[i].first < births[j].first })

	oldClasses := old.NumClasses()
	newClasses := oldClasses + len(births)
	newSize := old.Size() + growth
	rows := f.spareRows[:0]
	if cap(rows) < newSize {
		rows = make([]int32, 0, newSize+newSize/2)
	}
	offs := f.spareOffs[:0]
	if cap(offs) < newClasses+1 {
		offs = make([]int32, 0, newClasses+2)
	}
	codeOf := f.spareCode[:0]
	if cap(codeOf) < newClasses {
		codeOf = make([]int32, 0, newClasses+1)
	}

	// One merge pass in first-row order. Old classes keep their relative
	// order (appends cannot reorder them); births slot in by first row.
	bi := 0
	for ci := 0; ci < oldClasses; ci++ {
		code := f.codeOf[ci]
		clFirst := old.rows[old.offsets[ci]]
		for bi < len(births) && births[bi].first < clFirst {
			rows, offs, codeOf = f.emitBirth(rows, offs, codeOf, births[bi], deltaRows, prevCount)
			bi++
		}
		offs = append(offs, int32(len(rows)))
		rows = append(rows, old.Class(ci)...)
		codeOf = append(codeOf, code)
		if dr := deltaRows[code]; len(dr) > 0 {
			rows = append(rows, dr...)
			f.touched = append(f.touched, len(offs)-1)
		}
	}
	for bi < len(births) {
		rows, offs, codeOf = f.emitBirth(rows, offs, codeOf, births[bi], deltaRows, prevCount)
		bi++
	}
	offs = append(offs, int32(len(rows)))

	// Re-point the per-code class slots at the merged order.
	for ci, code := range codeOf {
		f.classOf[code] = int32(ci)
	}
	p := &Partition{rows: rows, offsets: offs, n: n, card: len(f.count)}
	p.BuildBits()
	// Recycle the outgoing arrays as the next call's arena.
	f.spareRows, f.spareOffs, f.spareCode = old.rows, old.offsets, f.codeOf
	f.part, f.codeOf = p, codeOf
	return p
}

// emitBirth appends one promoted or newborn class (old singleton first,
// then its ascending delta rows) and records it as touched.
func (f *Refiner) emitBirth(rows, offs, codeOf []int32, b birth,
	deltaRows map[int32][]int32, prevCount map[int32]int32) ([]int32, []int32, []int32) {
	offs = append(offs, int32(len(rows)))
	if prevCount[b.code] == 1 {
		rows = append(rows, f.first[b.code])
	}
	rows = append(rows, deltaRows[b.code]...)
	codeOf = append(codeOf, b.code)
	f.touched = append(f.touched, len(offs)-1)
	return rows, offs, codeOf
}
