package sim

import "itlbcfr/internal/program"

// WarmKey exposes the warm-pool key to the external test package, which can
// import the result store (the store imports sim, so sim's own tests cannot).
var WarmKey = keyOf

// BuiltImage builds opt's simulation on pool exactly as RunWith does and
// returns the code image the build fetches from, so tests can check which
// builds share an image.
func BuiltImage(opt Options, pool *WarmPool) (*program.Image, error) {
	b, err := build(opt, pool)
	if err != nil {
		return nil, err
	}
	if b.closer != nil {
		b.closer.Close()
	}
	return b.image, nil
}
