package simlint

import "testing"

// cacheFixture is a miniature invariant-carrying type: Mutate and
// Access (via its unexported helper) change state, Get does not.
const cacheFixture = `package core

type Cache struct {
	n     int
	valid bool
}

func (c *Cache) Mutate() { c.n++ }

func (c *Cache) Access() int {
	c.install()
	return c.n
}

func (c *Cache) install() { c.valid = true }

func (c *Cache) Get() int { return c.n }

func (c *Cache) CheckInvariants() {
	if c.n < 0 {
		panic("core: negative count")
	}
}
`

var fixtureTargets = []CoverageTarget{{Rel: "internal/core", Type: "Cache"}}

func TestInvariantCoverageFlagsUntestedMutators(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/core/cache.go": cacheFixture,
		// The test calls CheckInvariants and the read-only method, but
		// never the mutators.
		"internal/core/cache_test.go": `package core

import "testing"

func TestGet(t *testing.T) {
	var c Cache
	_ = c.Get()
	c.CheckInvariants()
}
`,
	}, NewInvariantCoverage(fixtureTargets))
	expectDiags(t, diags,
		"Cache.Mutate mutates cache state",
		"Cache.Access mutates cache state",
	)
}

func TestInvariantCoverageSatisfiedByBracketedTests(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/core/cache.go": cacheFixture,
		"internal/core/cache_test.go": `package core

import "testing"

func TestMutators(t *testing.T) {
	var c Cache
	c.Mutate()
	_ = c.Access()
	c.CheckInvariants()
}
`,
	}, NewInvariantCoverage(fixtureTargets))
	expectDiags(t, diags)
}

func TestInvariantCoverageIgnoresUncheckedTestFiles(t *testing.T) {
	// Calling the mutators in a test that never runs CheckInvariants
	// does not count as coverage.
	diags := lintFixture(t, map[string]string{
		"internal/core/cache.go": cacheFixture,
		"internal/core/cache_test.go": `package core

import "testing"

func TestMutators(t *testing.T) {
	var c Cache
	c.Mutate()
	_ = c.Access()
}
`,
	}, NewInvariantCoverage(fixtureTargets))
	expectDiags(t, diags,
		"Cache.Mutate mutates cache state",
		"Cache.Access mutates cache state",
	)
}

func TestInvariantCoverageRequiresCheckerMethod(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/core/cache.go": `package core

type Cache struct{ n int }

func (c *Cache) Mutate() { c.n++ }
`,
	}, NewInvariantCoverage(fixtureTargets))
	expectDiags(t, diags, "no CheckInvariants method")
}

// embeddedFixture keeps the checker and the mutating helpers on an
// unexported base: Cache's method set is its own methods plus the
// base's, with Cache.Get shadowing the base's mutating Get.
const embeddedFixture = `package core

type base struct{ n int }

func (b *base) install() { b.n++ }

func (b *base) Reset() { b.n = 0 }

func (b *base) Get() int {
	b.n++
	return b.n
}

func (b *base) CheckInvariants() {
	if b.n < 0 {
		panic("core: negative count")
	}
}

type Cache struct{ base }

func (c *Cache) Access() { c.install() }

func (c *Cache) Get() int { return c.n }
`

func TestInvariantCoverageFollowsEmbedding(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/core/cache.go": embeddedFixture,
		"internal/core/cache_test.go": `package core

import "testing"

func TestGet(t *testing.T) {
	var c Cache
	_ = c.Get()
	c.CheckInvariants()
}
`,
	}, NewInvariantCoverage(fixtureTargets))
	expectDiags(t, diags,
		"Cache.Reset mutates cache state",
		"Cache.Access mutates cache state",
	)
}
