"""The definition of a flow key, shared by the tests that check the keys
the switch builds and hands its mirror taps."""


def five_tuple(seg) -> tuple[str, int, str, int]:
    """Directed flow key (src ip, sport, dst ip, dport) of any packet."""
    return (seg.src.ip, seg.sport, seg.dst.ip, seg.dport)
