package chaos

import "fmt"

// diff lists the fields on which two fingerprints disagree (divergence
// reporting).
func (f Fingerprint) diff(g Fingerprint) []string {
	var out []string
	add := func(field string, a, b any) {
		out = append(out, fmt.Sprintf("%s: %v vs %v", field, a, b))
	}
	if f.Err != g.Err {
		add("err", f.Err, g.Err)
	}
	if f.ElapsedNS != g.ElapsedNS {
		add("elapsed_ns", f.ElapsedNS, g.ElapsedNS)
	}
	if f.Kernel != g.Kernel {
		add("kernel", f.Kernel, g.Kernel)
	}
	if f.Counters != g.Counters {
		add("counters", f.Counters, g.Counters)
	}
	if f.MemHash != g.MemHash {
		add("mem_hash", fmt.Sprintf("%016x", f.MemHash), fmt.Sprintf("%016x", g.MemHash))
	}
	if f.StateHash != g.StateHash {
		add("state_hash", fmt.Sprintf("%016x", f.StateHash), fmt.Sprintf("%016x", g.StateHash))
	}
	if len(f.Violations) != len(g.Violations) {
		add("violations", len(f.Violations), len(g.Violations))
	} else {
		for i := range f.Violations {
			if f.Violations[i] != g.Violations[i] {
				add("violation", f.Violations[i], g.Violations[i])
				break
			}
		}
	}
	return out
}
