package rt

import "fmt"

// The Parse* helpers validate the string forms of the machine's
// configuration kinds (flag values, HTTP experiment specs). An empty
// string parses to the kind's default, matching Config.withDefaults, so
// callers can normalize and validate in one step.

// ParseProtocol validates a coherence-protocol name.
func ParseProtocol(s string) (ProtocolKind, error) {
	switch ProtocolKind(s) {
	case "":
		return ProtoStache, nil
	case ProtoStache, ProtoPredictive, ProtoUpdate:
		return ProtocolKind(s), nil
	}
	return "", fmt.Errorf("rt: unknown protocol %q (want %q, %q or %q)",
		s, ProtoStache, ProtoPredictive, ProtoUpdate)
}

// ParseSched validates an event-scheduler name.
func ParseSched(s string) (SchedKind, error) {
	switch SchedKind(s) {
	case "":
		return SchedWheel, nil
	case SchedWheel, SchedHeap:
		return SchedKind(s), nil
	}
	return "", fmt.Errorf("rt: unknown scheduler %q (want %q or %q)", s, SchedWheel, SchedHeap)
}
