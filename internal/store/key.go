package store

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"itlbcfr/internal/energy"
	"itlbcfr/internal/pipeline"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/workload"
)

// SchemaVersion stamps both the cache key and every entry file. Bump it
// whenever the key encoding or the stored Result layout changes meaning:
// old entries then become unreachable (different key prefix) and unreadable
// entries are rejected by the version check, never misread.
const SchemaVersion = 1

// Canonical is sim.Options.Canonical, which owns the simulation defaults.
// It remains because the benchmark module (perfbench) canonicalizes its
// cells through this name.
func Canonical(opt sim.Options) sim.Options { return opt.Canonical() }

// keyConfig is the canonical encoding of a full simulation configuration.
// Every field that sim.Run reads appears here explicitly; encoding/json
// serializes struct fields in declaration order, so the byte stream — and
// therefore the hash — is deterministic.
type keyConfig struct {
	Schema  int
	Profile workload.Profile
	// TraceKey is the trace's own content address when the workload is a
	// stored trace. omitempty keeps every profile-keyed entry written
	// before traces existed byte-identical — same canonical JSON, same
	// hash — so the schema version needs no bump.
	TraceKey     string `json:",omitempty"`
	Scheme       string
	Style        string
	ITLB         tlb.Config
	PageBytes    uint64
	Instructions uint64
	Warmup       uint64
	Pipeline     pipeline.Config
	Tech         energy.Tech
}

// Key returns the content address of a simulation configuration: a
// schema-versioned SHA-256 over the canonical encoding. Equal configurations
// (after sim.Options.Canonical) map to equal keys; the key is filesystem-
// and URL-safe.
func Key(opt sim.Options) string {
	opt = opt.Canonical()
	traceKey := ""
	if opt.Trace != nil {
		traceKey = opt.Trace.Key
	}
	b, err := json.Marshal(keyConfig{
		Schema:       SchemaVersion,
		Profile:      opt.Profile,
		TraceKey:     traceKey,
		Scheme:       opt.Scheme.String(),
		Style:        opt.Style.String(),
		ITLB:         opt.ITLB,
		PageBytes:    opt.PageBytes,
		Instructions: opt.Instructions,
		Warmup:       opt.Warmup,
		Pipeline:     *opt.Pipeline,
		Tech:         *opt.Tech,
	})
	if err != nil {
		// keyConfig is a closed struct of plain data; Marshal cannot fail
		// on it short of a programming error.
		panic(fmt.Sprintf("store: key encoding: %v", err))
	}
	return fmt.Sprintf("s%d-%x", SchemaVersion, sha256.Sum256(b))
}
