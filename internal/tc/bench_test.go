package tc

import (
	"testing"
	"time"

	"meshlayer/internal/simnet"
)

// BenchmarkNearStrictPacketPath is simnet's BenchmarkPacketPath with
// the paper's §4.3 discipline on the sender's NIC: a window of packets
// alternating between the high and the low mark, so every packet is
// classified, and the high band, offered half the line against a 95 %
// share, never runs short: its bucket is back to full a packet or two
// after each draw.
func BenchmarkNearStrictPacketPath(b *testing.B) {
	s := simnet.NewScheduler()
	net := simnet.NewNetwork(s)
	na, nb := net.AddNode("a"), net.AddNode("b")
	net.Connect(na, nb, simnet.LinkConfig{Rate: 15 * simnet.Gbps, Delay: 10 * time.Microsecond})
	na.NICs()[0].SetQdisc(NewNearStrict(NearStrictConfig{LinkRate: 15 * simnet.Gbps, HighShare: 0.95}, s.Now))
	flow := simnet.FlowKey{Src: na.Addr(), Dst: nb.Addr(), SrcPort: 1, DstPort: 2, Proto: simnet.ProtoUDP}
	const window = 64
	sent, delivered := 0, 0
	var send func()
	send = func() {
		for sent < b.N && sent-delivered < window {
			p := net.AllocPacket()
			p.Flow = flow
			p.Size = simnet.MTU
			p.Mark = simnet.MarkLow + simnet.Mark(sent%2)
			na.Inject(p)
			sent++
		}
	}
	nb.SetDeliver(func(p *simnet.Packet) { delivered++; send() })
	b.ReportAllocs()
	b.ResetTimer()
	send()
	s.Run()
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d packets, want %d", delivered, b.N)
	}
}
