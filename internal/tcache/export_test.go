package tcache

// SetCodeChanged installs hook to run after every change to a
// fragment's lowered code, and returns a function that removes it.
func SetCodeChanged(hook func(*Fragment)) (restore func()) {
	prev := codeChanged
	codeChanged = hook
	return func() { codeChanged = prev }
}
