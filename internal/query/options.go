package query

import (
	"errors"
	"fmt"
	"time"

	"browserprov/internal/provgraph"
)

// DefaultBudget is the paper's 200 ms interactive bound (§4).
const DefaultBudget = 200 * time.Millisecond

// Sentinel errors for the query API. All errors returned by View
// queries (and the PQL evaluator) unwrap to one of these, so callers
// dispatch with errors.Is instead of string matching.
var (
	// ErrNoSuchDownload reports a lineage query for a save path or node
	// that is not a download in the queried snapshot.
	ErrNoSuchDownload = errors.New("no such download")
	// ErrClosed reports a query against a closed history. It is the
	// store layer's sentinel, re-exported: a pin failure deep in the
	// store and a facade-level closed check surface as the same error.
	ErrClosed = provgraph.ErrClosed
	// ErrBadQuery reports an unparseable or malformed query (PQL syntax
	// errors wrap it).
	ErrBadQuery = errors.New("bad query")
	// ErrNoSuchGeneration reports a ViewAt request for a generation the
	// engine no longer (or never) retains.
	ErrNoSuchGeneration = errors.New("generation not retained")
)

// NoDownloadError is the concrete error behind ErrNoSuchDownload,
// carrying what was looked up; errors.Is(err, ErrNoSuchDownload) holds.
type NoDownloadError struct {
	// Path is the save path (or PQL argument) that matched no download.
	Path string
}

func (e *NoDownloadError) Error() string {
	return fmt.Sprintf("query: no download %q: %v", e.Path, ErrNoSuchDownload)
}

func (e *NoDownloadError) Unwrap() error { return ErrNoSuchDownload }

// Options tunes query behaviour. The zero value gives the defaults used
// in the experiments. An engine carries a base Options; every query can
// override any knob per call with the With* functional options — the
// override resolves against the same shared snapshot and text index, no
// engine rebuild or re-index.
type Options struct {
	// Budget bounds each query's wall-clock time. 0 means DefaultBudget;
	// negative means unlimited. The effective deadline of a query is the
	// earlier of this budget and the context's deadline.
	Budget time.Duration
	// Decay is the per-hop weight decay of neighborhood expansion.
	// 0 means 0.5.
	Decay float64
	// MaxDepth bounds expansion depth. 0 means 3.
	MaxDepth int
	// MaxNodes bounds the expanded neighborhood size. 0 means 5000.
	// Seeds count toward it. When contextual search's full seed set
	// (every visit of each text-hit page, plus one seed per other text
	// hit) would reach it, each text-hit page seeds only its
	// max(1, MaxNodes/2/pages) most recent visits, so the expansion keeps
	// room for provenance neighbors.
	MaxNodes int
	// UseHITS additionally runs HITS over the expanded neighborhood and
	// blends authority scores into the ranking.
	UseHITS bool
	// RawGraph routes expansion over the raw snapshot instead of the
	// redirect-splicing personalisation lens (§3.2), which is the
	// default for contextual/personalised search.
	RawGraph bool
	// RecognizableVisits is the visit-count threshold for "a page the
	// user is likely to recognize" in lineage queries (§2.4). 0 means 3.
	RecognizableVisits int
}

func (o Options) budget() time.Duration {
	switch {
	case o.Budget == 0:
		return DefaultBudget
	case o.Budget < 0:
		return 365 * 24 * time.Hour
	default:
		return o.Budget
	}
}

func (o Options) decay() float64 {
	if o.Decay == 0 {
		return 0.5
	}
	return o.Decay
}

func (o Options) maxDepth() int {
	if o.MaxDepth == 0 {
		return 3
	}
	return o.MaxDepth
}

func (o Options) maxNodes() int {
	if o.MaxNodes == 0 {
		return 5000
	}
	return o.MaxNodes
}

func (o Options) recognizable() int {
	if o.RecognizableVisits == 0 {
		return 3
	}
	return o.RecognizableVisits
}

// Option is a per-call override of one Options knob. Pass any number to
// a View query; they apply on top of the engine's base Options for that
// call only.
type Option func(*Options)

// WithBudget bounds the query's wall-clock time (0 = DefaultBudget,
// negative = unlimited). The effective deadline is min(context
// deadline, budget).
func WithBudget(d time.Duration) Option { return func(o *Options) { o.Budget = d } }

// WithDecay sets the per-hop weight decay of neighborhood expansion.
func WithDecay(d float64) Option { return func(o *Options) { o.Decay = d } }

// WithDepth bounds neighborhood-expansion depth for this call.
func WithDepth(depth int) Option { return func(o *Options) { o.MaxDepth = depth } }

// WithMaxNodes bounds the expanded neighborhood size for this call,
// seeds included (see Options.MaxNodes).
func WithMaxNodes(n int) Option { return func(o *Options) { o.MaxNodes = n } }

// WithHITS toggles the HITS authority blend over the expanded
// neighborhood.
func WithHITS(on bool) Option { return func(o *Options) { o.UseHITS = on } }

// WithRawGraph routes traversal over the raw snapshot instead of the
// redirect-splicing lens.
func WithRawGraph(on bool) Option { return func(o *Options) { o.RawGraph = on } }

// WithRecognizableVisits sets the §2.4 "likely to recognize"
// visit-count threshold for this call.
func WithRecognizableVisits(n int) Option {
	return func(o *Options) { o.RecognizableVisits = n }
}
