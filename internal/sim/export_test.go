package sim

// WarmKey exposes the warm-pool key to the external test package, which can
// import the result store (the store imports sim, so sim's own tests cannot).
var WarmKey = keyOf
