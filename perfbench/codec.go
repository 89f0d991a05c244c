package main

import (
	"fmt"
	"testing"
	"time"

	"qrdtm/internal/proto"
)

// codecNames are the messages whose codec cost the traced run replays, in
// report order: each hot request and its reply.
var codecNames = []string{"batch_read", "batch_read_rep", "prepare", "prepare_rep", "decide", "decide_rep"}

// codecName names a captured message for replay ("" for messages the
// report does not cover).
func codecName(msg any) string {
	switch msg.(type) {
	case proto.BatchReadReq:
		return "batch_read"
	case proto.BatchReadRep:
		return "batch_read_rep"
	case proto.PrepareReq:
		return "prepare"
	case proto.PrepareRep:
		return "prepare_rep"
	case proto.DecideReq:
		return "decide"
	case proto.DecideRep:
		return "decide_rep"
	}
	return ""
}

// codecCost is the replayed cost of one message kind, per message.
type codecCost struct {
	bytes    float64 // encoded size
	encodeNs float64 // proto.AppendWire into a reused buffer
	decodeNs float64 // proto.DecodeWire
	allocs   float64 // allocations of one encode plus one decode
}

// codecOps is how many encodes (and decodes) each kind's timing averages.
const codecOps = 20000

// replayCodec times proto.AppendWire and proto.DecodeWire on messages
// captured from the live run. A kind with no captured message is absent.
func replayCodec(samples map[string][]any) (map[string]codecCost, error) {
	out := map[string]codecCost{}
	for _, name := range codecNames {
		msgs := samples[name]
		if len(msgs) == 0 {
			continue
		}
		wires := make([][]byte, len(msgs))
		var c codecCost
		for i, m := range msgs {
			b, ok := proto.AppendWire(nil, m)
			if !ok {
				return nil, fmt.Errorf("codec replay: %s (%T) is not wire-encodable", name, m)
			}
			if _, err := proto.DecodeWire(b); err != nil {
				return nil, fmt.Errorf("codec replay: %s does not round-trip: %w", name, err)
			}
			wires[i] = b
			c.bytes += float64(len(b))
		}
		c.bytes /= float64(len(msgs))

		passes := max(1, codecOps/len(msgs))
		ops := float64(passes * len(msgs))
		buf := make([]byte, 0, 4096)
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			for _, m := range msgs {
				buf, _ = proto.AppendWire(buf[:0], m)
			}
		}
		c.encodeNs = float64(time.Since(t0)) / ops
		t0 = time.Now()
		for p := 0; p < passes; p++ {
			for _, b := range wires {
				_, _ = proto.DecodeWire(b) // every wire decoded once above
			}
		}
		c.decodeNs = float64(time.Since(t0)) / ops

		perPass := testing.AllocsPerRun(20, func() {
			for i, m := range msgs {
				buf, _ = proto.AppendWire(buf[:0], m)
				_, _ = proto.DecodeWire(wires[i])
			}
		})
		c.allocs = perPass / float64(len(msgs))
		out[name] = c
	}
	return out, nil
}
