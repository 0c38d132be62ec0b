package nn

// Precision names a floating-point inference backend. Only Float64 exists.
//
// Deprecated: inference always runs in float64. Precision and
// ActivePrecision remain only so older callers compile; drop them.
type Precision uint32

// Float64 is the only inference backend.
//
// Deprecated: see Precision.
const Float64 Precision = 0

// ActivePrecision returns Float64.
//
// Deprecated: see Precision.
func ActivePrecision() Precision { return Float64 }
