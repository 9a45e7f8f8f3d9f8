package traceroute

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// randomState returns an opaque checkpoint state: empty, JSON null, or
// a random object written with stray whitespace and characters the
// encoder escapes (HTML, control, non-ASCII), which MarshalIndent
// compacts and re-indents.
func randomState(rng *rand.Rand) json.RawMessage {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return json.RawMessage{}
	case 2:
		return json.RawMessage(" null ")
	}
	words := []string{`a<b>&c`, "\\u00e9t\\u00e9", `line\nbreak`, `\"q\"`, `\"segments\": null`, " ", ""}
	var b bytes.Buffer
	b.WriteString("{ ")
	for i, n := 0, rng.Intn(4); i < n; i++ {
		if i > 0 {
			b.WriteString(" ,\n\t")
		}
		b.WriteString(`"k` + words[rng.Intn(len(words))] + `" :`)
		switch rng.Intn(4) {
		case 0:
			b.WriteString(`"` + words[rng.Intn(len(words))] + `"`)
		case 1:
			b.WriteString(" 1.5e3 ")
		case 2:
			b.WriteString(`[ 1, {"x": [ ] }, true ]`)
		default:
			b.WriteString(`{ }`)
		}
	}
	b.WriteString(" }")
	return json.RawMessage(b.Bytes())
}

// TestManifestEncoderMatchesMarshalIndent grows random manifests one
// record at a time, the way a durable log does, and checks that the
// splicing encoder reproduces encodeManifest's MarshalIndent bytes
// after every step: nil and empty lists, checkpoint states, and
// fingerprints that imitate the manifest's own keys.
func TestManifestEncoderMatchesMarshalIndent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fingerprints := []string{"", "fp", "seed=7 window=16 <&>", "\n  \"segments\": null", "é "}
	for trial := 0; trial < 200; trial++ {
		m := &Manifest{
			Schema:      manifestSchema,
			SegVersion:  segVersion,
			Fingerprint: fingerprints[rng.Intn(len(fingerprints))],
		}
		if rng.Intn(2) == 0 {
			m.Segments = []SegmentRecord{}
		}
		if rng.Intn(2) == 0 {
			m.Checkpoints = []Checkpoint{}
		}
		var enc manifestEncoder
		for step := 0; step < 12; step++ {
			switch rng.Intn(3) {
			case 0:
				m.Segments = append(m.Segments, SegmentRecord{
					Offset: rng.Int63(), Length: rng.Int63n(1 << 20), CRC: rng.Uint32(),
					Stage: []string{"sweep", "direct", "<alias>", ""}[rng.Intn(4)], Traces: rng.Intn(5000),
				})
			case 1:
				m.Checkpoints = append(m.Checkpoints, Checkpoint{
					Offset: rng.Int63(), Paths: rng.Intn(1 << 20), State: randomState(rng),
				})
			default:
				m.Complete = !m.Complete
			}
			if got, want := enc.encode(m), encodeManifest(m); !bytes.Equal(got, want) {
				t.Fatalf("trial %d step %d: encoder wrote\n%s\nMarshalIndent wrote\n%s", trial, step, got, want)
			}
		}
	}
}
