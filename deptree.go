// Package deptree is a comprehensive Go library for extended data
// dependencies, reproducing the family tree of Song, Gao, Huang & Wang,
// "Data Dependencies Extended for Variety and Veracity: A Family Tree"
// (IEEE TKDE 2020 / ICDE 2023).
//
// The library implements all 24 dependency classes surveyed by the paper —
// categorical (FD, SFD, PFD, AFD, NUD, CFD, eCFD, MVD, FHD, AMVD),
// heterogeneous (MFD, NED, DD, CDD, CD, PAC, FFD, MD, CMD) and numerical
// (OFD, OD, DC, SD, CSD) — together with their published discovery
// algorithms (TANE, FastFD, CORDS, CFDMiner, FASTDC, SD/CSD tableau DP,
// ...), the data-quality applications of Table 3 (violation detection,
// repair, deduplication, imputation, normalization, consistent query
// answering, fairness repair, query optimization), and the family tree of
// Fig 1A with every extension edge executable and empirically verified.
//
// This package is the facade: it re-exports the main types and wires the
// most common workflows. Power users can reach the full APIs through the
// same types' methods; the examples/ directory shows both styles.
package deptree

import (
	"context"
	"io"

	"deptree/internal/apps/detect"
	"deptree/internal/apps/repair"
	"deptree/internal/core"
	"deptree/internal/deps"
	"deptree/internal/deps/fd"
	"deptree/internal/discovery/cords"
	"deptree/internal/discovery/fastdc"
	"deptree/internal/discovery/fastfd"
	"deptree/internal/discovery/oddisc"
	"deptree/internal/discovery/tane"
	"deptree/internal/gen"
	"deptree/internal/relation"
)

// Core data model.
type (
	// Relation is an in-memory relation instance.
	Relation = relation.Relation
	// Schema is a relation scheme.
	Schema = relation.Schema
	// Attribute is a named, typed column.
	Attribute = relation.Attribute
	// Value is one cell.
	Value = relation.Value
	// Dependency is the contract every dependency class implements.
	Dependency = deps.Dependency
	// Violation is a witness that a dependency fails.
	Violation = deps.Violation
	// FD is a functional dependency.
	FD = fd.FD
)

// Value constructors.
var (
	// String builds a categorical value.
	String = relation.String
	// Int builds an integral value.
	Int = relation.Int
	// Float builds a fractional value.
	Float = relation.Float
)

// NewRelation creates an empty instance over a schema.
func NewRelation(name string, schema *Schema) *Relation { return relation.New(name, schema) }

// NewSchema builds a schema.
func NewSchema(attrs ...Attribute) *Schema { return relation.NewSchema(attrs...) }

// ReadCSV loads a relation from CSV (kinds nil = all strings).
func ReadCSV(name string, src io.Reader, kinds []relation.Kind) (*Relation, error) {
	return relation.ReadCSV(name, src, kinds)
}

// MustFD declares an FD by attribute names, panicking on unknown names.
func MustFD(schema *Schema, lhs, rhs []string) FD { return fd.Must(schema, lhs, rhs) }

// Detect runs violation detection for any dependency set.
func Detect(r *Relation, rules []Dependency) []detect.Report {
	return detect.Run(r, rules, detect.Options{})
}

// RepairFDs repairs FD violations by in-group majority vote and returns
// the repaired instance with the change log.
func RepairFDs(r *Relation, fds []FD) repair.Result { return repair.FDRepair(r, fds) }

// DiscoverFDs finds all minimal exact FDs with TANE.
func DiscoverFDs(r *Relation) []FD {
	return tane.DiscoverContext(context.Background(), r, tane.Options{}).FDs
}

// DiscoverAFDs finds minimal approximate FDs with g3 error ≤ maxError.
func DiscoverAFDs(r *Relation, maxError float64) []FD {
	return tane.DiscoverContext(context.Background(), r, tane.Options{MaxError: maxError}).FDs
}

// DiscoverFDsFastFD finds all minimal exact FDs with FastFD (identical
// results to DiscoverFDs by construction; different complexity profile).
func DiscoverFDsFastFD(r *Relation) []FD {
	return fastfd.DiscoverContext(context.Background(), r, fastfd.Options{}).FDs
}

// Profile summarizes a relation: discovered exact FDs, soft dependencies
// and denial constraints — the "profiling" entry point.
type Profile struct {
	FDs  []FD
	SFDs cords.Result
	DCs  int
}

// ProfileRelation runs the standard profiling pipeline.
func ProfileRelation(r *Relation) Profile {
	return Profile{
		FDs:  tane.DiscoverContext(context.Background(), r, tane.Options{MaxLHS: 2}).FDs,
		SFDs: cords.DiscoverContext(context.Background(), r, cords.Options{}),
		DCs:  len(fastdc.DiscoverContext(context.Background(), r, fastdc.Options{MaxPredicates: 2}).DCs),
	}
}

// DiscoverODs finds single-attribute order dependencies.
func DiscoverODs(r *Relation) int {
	return len(oddisc.DiscoverContext(context.Background(), r, oddisc.Options{}).ODs)
}

// The paper's running-example fixtures.
var (
	// Table1 is the hotel relation r1 of §1.1.
	Table1 = gen.Table1
	// Table5 is the relation r5 of §2 (approximate FDs).
	Table5 = gen.Table5
	// Table6 is the heterogeneous relation r6 of §3.
	Table6 = gen.Table6
	// Table7 is the numerical relation r7 of §4.
	Table7 = gen.Table7
)

// CleanInteractively interleaves MD-based record matching with FD-based
// repairing to a fixpoint (Fan et al., paper §3.7.4) — the workflows help
// each other on data neither fixes alone.
var CleanInteractively = repair.InteractiveClean

// ArmstrongRelation builds an instance satisfying exactly the FDs implied
// by the given set — discovery on it recovers an equivalent cover.
var ArmstrongRelation = fd.ArmstrongRelation

// Family-tree access (Fig 1A).
var (
	// FamilyTree returns the extension edges.
	FamilyTree = core.FamilyTree
	// Registry returns the dependency index of Table 2.
	Registry = core.Registry
	// VerifyAllEdges empirically verifies every extension edge.
	VerifyAllEdges = core.VerifyAll
	// Suggest recommends dependency classes for a task and data types.
	Suggest = core.SuggestFor
)
