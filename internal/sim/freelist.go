package sim

// FreeList recycles pooled operations, so that steady-state simulation
// does not allocate. The zero FreeList is empty and ready to use.
type FreeList[T any] struct{ free []*T }

// Get returns a recycled value, or nil when there is none.
func (l *FreeList[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put recycles x. The caller must hold no other use of it.
func (l *FreeList[T]) Put(x *T) { l.free = append(l.free, x) }
