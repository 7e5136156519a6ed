package core

import (
	"math/rand"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/paperex"
	"multijoin/internal/relation"
)

// refFingerprintDB is FingerprintDB as first written: distinct counts
// from a string-keyed set over the decoded rows. The ID-slab version
// must digest exactly the same numbers, or every cached plan keyed by an
// older fingerprint would silently miss.
func refFingerprintDB(db *database.Database) Fingerprint {
	shape := fnvInt(fnvOffset, db.Len())
	stats := fnvInt(fnvOffset, db.Len())
	for i := 0; i < db.Len(); i++ {
		r := db.Relation(i)
		attrs := r.Schema().Attrs()
		shape = fnvInt(shape, len(attrs))
		for _, a := range attrs {
			shape = fnvString(shape, string(a))
		}
		stats = fnvInt(stats, r.Size())
		for col := range attrs {
			distinct := make(map[relation.Value]struct{})
			for _, row := range r.Rows() {
				distinct[row[col]] = struct{}{}
			}
			stats = fnvInt(stats, len(distinct))
		}
	}
	return Fingerprint{Shape: shape, Stats: stats}
}

func TestFingerprintMatchesStringReference(t *testing.T) {
	dbs := map[string]*database.Database{
		"example1": paperex.Example1(),
		"example2": paperex.Example2(),
		"example3": paperex.Example3(),
		"example4": paperex.Example4(),
		"example5": paperex.Example5(),
	}
	rng := rand.New(rand.NewSource(77))
	for _, sh := range []gen.Shape{gen.Chain, gen.Cycle, gen.Star, gen.Clique} {
		dbs["uniform-"+sh.String()] = gen.Uniform(rng, gen.Schemes(sh, 5), 40, 9)
		dbs["zipf-"+sh.String()] = gen.Zipf(rng, gen.Schemes(sh, 5), 40, 9, 1.4)
	}
	dbs["empty"] = database.New(
		relation.New("R1", relation.SchemaFromString("AB")),
		relation.FromStrings("R2", "BC", "1 x", "2 x"),
	)
	for name, db := range dbs {
		if got, want := FingerprintDB(db), refFingerprintDB(db); got != want {
			t.Errorf("%s: fingerprint %v, string reference %v", name, got, want)
		}
	}
	// Golden values pin the digest itself, not only its agreement with
	// the reference.
	if got := FingerprintDB(paperex.Example1()).String(); got != "7ecf9d27d55d6ef9-9db572e1606f29bd" {
		t.Errorf("example1 fingerprint %s", got)
	}
	if got := FingerprintDB(paperex.Example5()).String(); got != "48f381036176b94e-1cea2aee92e0eb51" {
		t.Errorf("example5 fingerprint %s", got)
	}
}
