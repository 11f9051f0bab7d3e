// Package replica implements WAL-shipping read replication: a leader
// provd serves its checkpoint file and a tailing stream of WAL frames
// over HTTP, and follower daemons bootstrap from the checkpoint, then
// replay the stream into their own read-only stores.
//
// # Protocol
//
// Three endpoints on the leader:
//
//	GET /replica/meta
//	    JSON coordinates: leader instance ID, checkpoint generation,
//	    the checkpoint's start LSN, the WAL's next LSN, and the
//	    store's in-memory generation counter.
//
//	GET /checkpoint/<gen>
//	    The sectioned v3 checkpoint file, verbatim. The response
//	    headers carry the generation and start LSN the file was read
//	    under, captured atomically with it. If <gen> is no longer the
//	    current generation (a checkpoint superseded it mid-bootstrap),
//	    the reply is 410 Gone with fresh meta in the body: retry there.
//
//	GET /wal/stream?from=<lsn>&follower=<id>&expect_crc=<crc>&instance=<id>&wait_ms=<n>&max_bytes=<n>
//	    Long-poll for WAL frames starting at <lsn>. A 200 body is raw
//	    concatenated WAL frames — the exact bytes the leader logged,
//	    CRCs included — and X-Prov-Next-Lsn names the LSN after the
//	    last one shipped (frames may tear in transit; the follower
//	    verifies each CRC and re-requests from its own high-water
//	    mark). 410 Gone: <lsn> was compacted into a checkpoint —
//	    bootstrap. 409 Conflict: the leader cannot prove continuity
//	    with what the follower already applied (the follower is ahead
//	    of the leader's log, its expect_crc does not match, or the
//	    leader is a different instance at an unverifiable boundary) —
//	    re-bootstrap.
//
// # Divergence detection
//
// LSNs alone cannot prove a resumed stream continues the same history:
// a leader that crashed with unsynced WAL tail loses records it
// already shipped, and after restart may log different events at the
// same LSNs. Frame CRCs are content fingerprints, identical on both
// sides because the frames are identical bytes. A follower therefore
// presents the CRC of its last applied frame (expect_crc) when
// resuming; the leader verifies it against the same LSN in its own log
// before serving. When the frame before the resume point has been
// compacted away (from == the checkpoint's start LSN), continuity is
// unverifiable by content, so the follower's record of the leader's
// instance ID must match — a new instance at that boundary forces a
// re-bootstrap instead of risking silent divergence.
package replica

// Endpoint paths on the leader.
const (
	PathMeta       = "/replica/meta"
	PathCheckpoint = "/checkpoint/" // + decimal generation
	PathWALStream  = "/wal/stream"
)

// Response headers.
const (
	HdrInstance = "X-Prov-Instance"
	HdrGen      = "X-Prov-Gen"
	HdrStartLSN = "X-Prov-Start-Lsn"
	HdrNextLSN  = "X-Prov-Next-Lsn"
)

// Meta is the leader's replication coordinates, served at PathMeta and
// as the body of 410/409 replies so a refused follower learns where to
// go next without another round trip.
type Meta struct {
	// Instance identifies one leader process lifetime; it changes on
	// every leader restart.
	Instance string `json:"instance"`
	// CheckpointGen is the current checkpoint generation (0 if none).
	CheckpointGen uint64 `json:"checkpoint_gen"`
	// StartLSN is the first LSN not covered by that checkpoint.
	StartLSN uint64 `json:"start_lsn"`
	// NextLSN is the LSN the leader's next logged record will receive.
	NextLSN uint64 `json:"next_lsn"`
	// Generation is the leader store's in-memory generation counter
	// (the one Views pin); informational.
	Generation uint64 `json:"generation"`
}
