package netpkt

import "fmt"

// FragmentIPv4 splits an IPv4 packet (header + payload, as produced by
// IPv4.Marshal) into fragments that fit mtu bytes of IP packet each. A
// packet that already fits is returned unchanged as a single element.
//
// The sender in the paper's IP-defragmentation experiment (§8.2.2)
// fragments in software exactly like this when the route MTU (1450 B) is
// below the packet size (1500 B).
func FragmentIPv4(pkt []byte, mtu int) ([][]byte, error) {
	h, payload, err := ParseIPv4(pkt)
	if err != nil {
		return nil, err
	}
	if len(pkt) <= mtu {
		return [][]byte{pkt}, nil
	}
	if h.DontFrag {
		return nil, fmt.Errorf("netpkt: packet needs fragmentation but DF is set")
	}
	// Fragment payload size must be a multiple of 8 except for the last.
	maxData := (mtu - IPv4HeaderLen) &^ 7
	if maxData <= 0 {
		return nil, fmt.Errorf("netpkt: MTU %d too small to fragment", mtu)
	}
	var frags [][]byte
	for off := 0; off < len(payload); off += maxData {
		end := off + maxData
		more := true
		if end >= len(payload) {
			end = len(payload)
			more = false
		}
		fh := h
		fh.TotalLen = uint16(IPv4HeaderLen + end - off)
		fh.FragOffset = h.FragOffset + uint16(off)
		fh.MoreFrags = more || h.MoreFrags
		frag := fh.Marshal(make([]byte, 0, IPv4HeaderLen+end-off))
		frag = append(frag, payload[off:end]...)
		frags = append(frags, frag)
	}
	return frags, nil
}

// FragmentEth fragments the IP packet inside an Ethernet frame and rewraps
// each fragment with the same Ethernet header.
func FragmentEth(frame []byte, mtu int) ([][]byte, error) {
	eh, ip, err := ParseEth(frame)
	if err != nil {
		return nil, err
	}
	if eh.EtherType != EtherTypeIPv4 {
		return [][]byte{frame}, nil
	}
	frags, err := FragmentIPv4(ip, mtu)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(frags))
	for i, f := range frags {
		b := eh.Marshal(make([]byte, 0, EthHeaderLen+len(f)))
		out[i] = append(b, f...)
	}
	return out, nil
}
