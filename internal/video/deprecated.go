package video

// The names in this file remain only so older callers compile: readers
// decode synchronously and hold no resources, so there is no decode-ahead
// depth to set and nothing to close.

// Close does nothing.
//
// Deprecated: drop the call.
func (r *Reader) Close() {}

// PrefetchDepth returns 0.
//
// Deprecated: drop the call.
func PrefetchDepth() int { return 0 }

// SetPrefetchDepth does nothing.
//
// Deprecated: drop the call.
func SetPrefetchDepth(int) {}
