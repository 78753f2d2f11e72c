package store

// The storage-engine seam. PR 3 made the SPARQL engines run on an
// ID-level read API; this file names that API as interfaces so an
// alternative storage tier (the disk-backed store in
// internal/store/disk) can slot in under the compiled-plan executor,
// the EXPLAIN profiler and the streaming operators without those
// layers changing. The in-memory *Store is the fast tier and the
// reference implementation of every interface here.

import (
	"repro/internal/rdf"
)

// ReaderAPI is the ID-level read seam every storage tier implements: a
// stable, read-only view of one store state. *Reader (the in-memory
// tier) and disk.Reader (the persistent tier) are the implementations.
// Implementations must be safe for concurrent readers; MatchIDs
// iteration order is part of the contract — the sorted key order of
// the permutation index the pattern shape selects — so the two tiers
// enumerate identical corpora identically.
type ReaderAPI interface {
	// Term materializes the term for a store-issued ID. It panics on
	// NoID or an ID the tier never issued (a programming error).
	Term(id ID) rdf.Term
	// Lookup returns the ID of t, or NoID.
	Lookup(t rdf.Term) ID
	// MaxID returns the highest issued ID; valid IDs are 1..MaxID.
	MaxID() ID
	// Len returns the number of triples.
	Len() int
	// DistinctSubjects returns the number of distinct subjects.
	DistinctSubjects() int
	// DistinctPredicates returns the number of distinct predicates.
	DistinctPredicates() int
	// DistinctObjects returns the number of distinct objects.
	DistinctObjects() int
	// PredCount returns the number of triples with predicate p.
	PredCount(p ID) int
	// Objects returns the sorted object IDs under (s, p); the slice
	// must not be modified.
	Objects(s, p ID) []ID
	// Subjects returns the sorted subject IDs under (p, o); the slice
	// must not be modified.
	Subjects(p, o ID) []ID
	// PredicatesBetween returns the sorted predicate IDs linking
	// (s, o); the slice must not be modified.
	PredicatesBetween(s, o ID) []ID
	// HasID reports whether the triple (s, p, o) is present.
	HasID(s, p, o ID) bool
	// MatchIDs streams matching triples as IDs in the index order of
	// the pattern shape; returning false from fn stops early and
	// MatchIDs reports whether iteration ran to completion.
	MatchIDs(pat IDPattern, fn func(s, p, o ID) bool) bool
	// CardinalityIDs returns the exact number of triples matching the
	// pattern.
	CardinalityIDs(pat IDPattern) int
}

// Queryable is the surface the SPARQL engine executes against: an
// ID-level snapshot for the compiled plan plus the term-level reads the
// reference evaluator and presentation code use. Both storage
// tiers implement it, which is what lets sparql.Exec / Query.Stream /
// Query.Explain run unmodified over memory or disk.
type Queryable interface {
	// Snapshot returns a stable read view. Each query execution takes
	// one snapshot, so a tier that accepts concurrent writes gives the
	// query a consistent corpus for its whole run.
	Snapshot() ReaderAPI
	// Match streams every triple matching the term-level pattern.
	Match(pat Pattern, fn func(rdf.Triple) bool)
	// Cardinality returns the number of triples matching the pattern.
	Cardinality(pat Pattern) int
}

// Backend is a writable storage tier: Queryable plus the insert/flush
// lifecycle the extraction path drives. The in-memory *Store implements
// it with no-op durability; disk.Store implements it over the WAL.
type Backend interface {
	Queryable
	// Insert adds one triple, reporting whether it was new. Writable
	// tiers may buffer; Flush makes every prior Insert durable.
	Insert(t rdf.Triple) (bool, error)
	// Delete removes one triple, reporting whether it was present.
	// Like Insert it may buffer; Flush commits the whole pending
	// insert+delete batch atomically on persistent tiers.
	Delete(t rdf.Triple) (bool, error)
	// Len returns the number of triples, including buffered inserts.
	Len() int
	// Flush commits and (for persistent tiers) makes durable every
	// buffered insert.
	Flush() error
	// Close flushes and releases the tier's resources.
	Close() error
}

// Snapshot implements Queryable for the in-memory tier.
func (s *Store) Snapshot() ReaderAPI { return s.Reader() }

// Insert implements Backend for the in-memory tier.
func (s *Store) Insert(t rdf.Triple) (bool, error) { return s.Add(t), nil }

// Delete implements Backend for the in-memory tier.
func (s *Store) Delete(t rdf.Triple) (bool, error) { return s.Remove(t), nil }

// Flush implements Backend; the in-memory tier has nothing to persist.
func (s *Store) Flush() error { return nil }

// Close implements Backend; the in-memory tier holds no resources.
func (s *Store) Close() error { return nil }

// MatchOn answers a term-level Match over any ReaderAPI: the pattern's
// terms are resolved through the tier's dictionary (an unknown term
// matches nothing) and every matching triple is re-materialized for fn.
// Returning false from fn stops the iteration early.
func MatchOn(r ReaderAPI, pat Pattern, fn func(rdf.Triple) bool) {
	ip, ok := resolvePattern(r, pat)
	if !ok {
		return
	}
	r.MatchIDs(ip, func(a, b, c ID) bool {
		return fn(rdf.Triple{S: r.Term(a), P: r.Term(b), O: r.Term(c)})
	})
}

// CardinalityOn answers a term-level Cardinality over any ReaderAPI.
func CardinalityOn(r ReaderAPI, pat Pattern) int {
	ip, ok := resolvePattern(r, pat)
	if !ok {
		return 0
	}
	return r.CardinalityIDs(ip)
}

// resolvePattern interns the pattern's concrete terms; ok is false when
// a concrete term is unknown to the dictionary (nothing can match).
func resolvePattern(r ReaderAPI, pat Pattern) (IDPattern, bool) {
	var ip IDPattern
	if !pat.S.IsZero() {
		if ip.S = r.Lookup(pat.S); ip.S == NoID {
			return ip, false
		}
	}
	if !pat.P.IsZero() {
		if ip.P = r.Lookup(pat.P); ip.P == NoID {
			return ip, false
		}
	}
	if !pat.O.IsZero() {
		if ip.O = r.Lookup(pat.O); ip.O == NoID {
			return ip, false
		}
	}
	return ip, true
}
