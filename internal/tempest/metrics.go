package tempest

import (
	"fmt"

	"presto/internal/metrics"
)

// MsgKind is a dense index over the protocol message types, used for
// per-kind send/receive counters.
type MsgKind uint8

const (
	KindGetRO MsgKind = iota
	KindGetRW
	KindDataRO
	KindDataRW
	KindInval
	KindInvalAck
	KindRecallRO
	KindRecallRW
	KindWriteBack
	KindBulk
	KindAgg
	KindGetBulk
	KindGatherDone
	KindWake
	KindPresendGo
	KindPresendDone
	KindUseDone
	KindSignal
	KindUpdate
	KindOther
	NumMsgKinds
)

var msgKindNames = [NumMsgKinds]string{
	"GetRO", "GetRW", "DataRO", "DataRW", "Inval", "InvalAck",
	"RecallRO", "RecallRW", "WriteBack", "Bulk", "Agg", "GetBulk", "GatherDone",
	"Wake", "PresendGo", "PresendDone", "UseDone", "Signal", "Update",
	"Other",
}

func (k MsgKind) String() string { return msgKindNames[k] }

// KindOf classifies a protocol message.
func KindOf(m Msg) MsgKind {
	switch m.(type) {
	case MsgGetRO:
		return KindGetRO
	case MsgGetRW:
		return KindGetRW
	case MsgDataRO:
		return KindDataRO
	case MsgDataRW:
		return KindDataRW
	case MsgInval:
		return KindInval
	case MsgInvalAck:
		return KindInvalAck
	case MsgRecallRO:
		return KindRecallRO
	case MsgRecallRW:
		return KindRecallRW
	case MsgWriteBack:
		return KindWriteBack
	case MsgBulk:
		return KindBulk
	case MsgAgg:
		return KindAgg
	case MsgGetBulk:
		return KindGetBulk
	case MsgGatherDone:
		return KindGatherDone
	case MsgWake:
		return KindWake
	case MsgPresendGo:
		return KindPresendGo
	case MsgPresendDone:
		return KindPresendDone
	case MsgUseDone:
		return KindUseDone
	case MsgSignal:
		return KindSignal
	case MsgUpdate:
		return KindUpdate
	}
	return KindOther
}

// numDirStates sizes the directory-transition counter matrix.
const numDirStates = 4

// Metrics is one node's instrument set. The instruments are plain
// values in the node's own state, so hot-path updates are lookup- and
// allocation-free and a node costs no registry entries while it runs;
// Register publishes them under their names when a report is built.
type Metrics struct {
	// Sent and Recv count protocol messages by kind (Sent at the posting
	// node, Recv at the dispatching protocol processor).
	Sent [NumMsgKinds]metrics.Counter
	Recv [NumMsgKinds]metrics.Counter

	// Dir counts directory state transitions [from][to] at this home.
	Dir [numDirStates][numDirStates]metrics.Counter

	// FaultLatency is the fault-to-grant latency distribution (virtual
	// nanoseconds from fault detection to resumed access).
	FaultLatency metrics.Histogram
	// MsgPayload is the sent-message payload-size distribution (bytes,
	// excluding the fixed header).
	MsgPayload metrics.Histogram

	// PresendsIn counts pre-sent blocks installed at this node;
	// PresendHits counts those consumed by an access before any fault
	// (a fault averted); PresendsStale counts pre-sent blocks that
	// faulted anyway (invalidated or recalled before use).
	PresendsIn    metrics.Counter
	PresendHits   metrics.Counter
	PresendsStale metrics.Counter
	// PresendsRaced counts pre-sent blocks that arrived while the compute
	// processor was already fault-waiting on them (too late to avert the
	// fault). At quiescence PresendsIn == PresendHits + PresendsStale +
	// PresendsRaced + the node's still-fresh count, exactly
	// (check.Accounting).
	PresendsRaced metrics.Counter

	// Phases attributes faults, wait time and pre-send consumption to
	// compiler-identified parallel phases (per node).
	Phases metrics.PhaseSet
}

// Register publishes node's instruments in reg under an "nNN/" prefix.
func (m *Metrics) Register(reg *metrics.Registry, node int) {
	p := fmt.Sprintf("n%02d/", node)
	reg.AddHistogram(p+"fault_latency_ns", &m.FaultLatency)
	reg.AddHistogram(p+"msg_payload_bytes", &m.MsgPayload)
	reg.AddCounter(p+"presends_in", &m.PresendsIn)
	reg.AddCounter(p+"presend_hits", &m.PresendHits)
	reg.AddCounter(p+"presends_stale", &m.PresendsStale)
	reg.AddCounter(p+"presends_raced", &m.PresendsRaced)
	for k := MsgKind(0); k < NumMsgKinds; k++ {
		reg.AddCounter(p+"sent/"+k.String(), &m.Sent[k])
		reg.AddCounter(p+"recv/"+k.String(), &m.Recv[k])
	}
	for from := 0; from < numDirStates; from++ {
		for to := 0; to < numDirStates; to++ {
			reg.AddCounter(fmt.Sprintf("%sdir/%v_to_%v",
				p, DirState(from), DirState(to)), &m.Dir[from][to])
		}
	}
}
