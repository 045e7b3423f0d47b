package abortfix

// allowedSwallow is the suppression case: a pool-join style handler the
// author vouches for with a reasoned directive.
//
//simlint:allow abortflow fixture: worker-pool join re-panics the first captured value after the pool drains; the abort signal is consumed by Try inside the worker body
func allowedSwallow(body func()) {
	defer func() {
		recover()
	}()
	body()
}
