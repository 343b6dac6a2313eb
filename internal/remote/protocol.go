// Package remote makes Stampede channels reachable over real TCP sockets,
// so a pipeline can genuinely span processes and machines (the paper's
// Stampede is a cluster programming library; §5's configuration 2 runs
// each task on its own node).
//
// A Server hosts named channels. Remote threads attach producer or
// consumer connections and then put/get items over the wire; summary-STP
// feedback is piggybacked on exactly those messages, as in the paper: a
// consumer's get carries its summary-STP to the channel, and a producer's
// put returns the channel's compressed summary-STP with the reply.
//
// Each attached connection owns one TCP connection carrying a strict
// request/response alternation, so a blocking GetLatest simply leaves the
// reply pending. Payloads are opaque byte slices; callers serialize their
// own data.
//
// Every message is one length-prefixed binary frame (frame.go):
//
//	u32 LE  body length (everything below; at most 64 MiB)
//	u8      version (1; any other value drops the connection)
//	u8      op/flags: a request's Op in bits 0-6 and Retry in bit 7;
//	        a response's OK in bit 0, other bits zero
//	varint  request:  TS, Size, SummarySTP, Window (zig-zag), Token (unsigned)
//	        response: TS, Size, SummarySTP, Items, Bytes (all zig-zag)
//	string  request Channel / response Err: uvarint length (≤ 1 KiB), bytes
//	list    response only: uvarint count, then each SkippedTS zig-zag
//	bytes   payload: the rest of the frame (empty decodes as nil)
//
// Every varint must be in shortest form, and every declared length is
// checked against the bytes left in the frame before anything is
// allocated for it. A frame that breaks a rule is a wire failure: the
// server drops the connection, and a client redials as after any
// transport fault. A put's payload is at most 63 MiB, so the get reply
// that carries it back out keeps 1 MiB for its header and skipped list;
// a reply whose skipped list would still overflow the frame drops its
// oldest entries.
package remote

import (
	"repro/internal/core"
	"repro/internal/vt"
)

// Op is a protocol request kind.
type Op uint8

// Protocol operations.
const (
	// OpAttachProducer binds this TCP connection as a producer of the
	// named channel.
	OpAttachProducer Op = iota + 1
	// OpAttachConsumer binds this TCP connection as a consumer.
	OpAttachConsumer
	// OpPut inserts an item (producer connections only).
	OpPut
	// OpGetLatest blocks for the freshest unseen item (consumers only).
	OpGetLatest
	// OpTryGetLatest is the non-blocking variant.
	OpTryGetLatest
	// OpStats reports channel occupancy.
	OpStats
	// OpDetach releases the connection's attachment.
	OpDetach
)

// Request is one client→server message.
type Request struct {
	Op      Op
	Channel string
	// TS is the item timestamp (OpPut).
	TS vt.Timestamp
	// Payload carries opaque item bytes (OpPut).
	Payload []byte
	// Size is the item's logical size for accounting; if zero on put,
	// len(Payload) is used.
	Size int64
	// SummarySTP piggybacks the sender's summary-STP (OpGetLatest /
	// OpTryGetLatest: consumer → channel feedback).
	SummarySTP core.STP
	// Window is the consumer's sliding-window width (OpAttachConsumer);
	// zero means 1. Re-attaches after a reconnect replay it so the
	// server-side view is rebuilt exactly.
	Window int
	// Token identifies one producer instance across reconnects
	// (OpAttachProducer / OpPut). The server remembers the last applied
	// (token, timestamp) so a put retried after a lost response is
	// idempotent — it never double-inserts. Zero means "no idempotency".
	Token uint64
	// Retry marks a put re-sent after a wire failure mid-call: the
	// original may or may not have been applied. Paired with Token (or,
	// for token-less clients, with the channel's duplicate-timestamp
	// check) it makes the retry safe.
	Retry bool
}

// Response is one server→client message.
type Response struct {
	// Err is a non-empty error string on failure. ErrClosed maps to
	// "closed" so clients can detect shutdown.
	Err string
	// OK distinguishes "no fresh item" on OpTryGetLatest.
	OK bool
	// TS, Payload, Size describe the returned item.
	TS      vt.Timestamp
	Payload []byte
	Size    int64
	// SkippedTS lists timestamps this consumer passed over.
	SkippedTS []vt.Timestamp
	// SummarySTP piggybacks the channel's summary-STP (OpPut reply:
	// channel → producer feedback).
	SummarySTP core.STP
	// Items/Bytes report occupancy (OpStats).
	Items int
	Bytes int64
}

// ErrClosedText is the canonical Err value for a closed channel or
// server.
const ErrClosedText = "closed"
