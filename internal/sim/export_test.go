package sim

// LiveRoutes returns the number of route entries e's store holds live.
func LiveRoutes(e *Engine) int { return e.slab.Store().LiveRoutes() }
