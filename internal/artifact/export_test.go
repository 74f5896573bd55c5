package artifact

// NewWithBudgets returns a cache whose tiers rotate after the given
// budgets of source bytes, so tests can force evictions on small
// crawls.
func NewWithBudgets(program, dom int) *Cache {
	return newWithBudgets(program, dom)
}
