"""Speaker activity timelines and the line-oriented RTTM segment format."""

from dataclasses import dataclass

__all__ = ["Segment", "Timeline", "write_rttm", "read_rttm"]


@dataclass(frozen=True)
class Segment:
    speaker: str
    start: float
    end: float

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(f"segment start must precede end: {self}")
        if self.start < 0:
            raise ValueError("segment start must be >= 0")

    @property
    def duration(self):
        return self.end - self.start


class Timeline:
    """A set of (speaker, start, end) activity segments.

    Segments of the same speaker are normalized on construction: sorted and
    merged wherever they touch or overlap.
    """

    def __init__(self, segments=()):
        by_speaker = {}
        for seg in segments:
            if not isinstance(seg, Segment):
                seg = Segment(*seg)
            by_speaker.setdefault(seg.speaker, []).append(seg)
        merged = []
        for speaker in sorted(by_speaker):
            runs = sorted(by_speaker[speaker], key=lambda s: s.start)
            cur_start, cur_end = runs[0].start, runs[0].end
            for seg in runs[1:]:
                if seg.start <= cur_end:
                    cur_end = max(cur_end, seg.end)
                else:
                    merged.append(Segment(speaker, cur_start, cur_end))
                    cur_start, cur_end = seg.start, seg.end
            merged.append(Segment(speaker, cur_start, cur_end))
        self.segments = tuple(merged)

    def __len__(self):
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    def __eq__(self, other):
        return isinstance(other, Timeline) and self.segments == other.segments

    def speakers(self):
        return sorted({s.speaker for s in self.segments})

    def end_time(self) -> float:
        return max((s.end for s in self.segments), default=0.0)

    def for_speaker(self, speaker: str):
        return [s for s in self.segments if s.speaker == speaker]

    def overlap_with_window(self, speaker: str, start: float, end: float) -> float:
        total = 0.0
        for seg in self.for_speaker(speaker):
            total += max(0.0, min(seg.end, end) - max(seg.start, start))
        return total

    def active_speakers(self, start: float, end: float):
        """Speakers with some speech inside the window."""
        out = []
        for speaker in self.speakers():
            if self.overlap_with_window(speaker, start, end) > 0.0:
                out.append(speaker)
        return out


def write_rttm(path, timelines: dict) -> None:
    """Write ``{session_id: Timeline}`` in RTTM format.

    One line per segment:
    ``SPEAKER <file> 1 <tbeg> <tdur> <NA> <NA> <spk> <NA> <NA>``
    """
    lines = []
    for session in sorted(timelines):
        for seg in sorted(
            timelines[session].segments, key=lambda s: (s.start, s.speaker)
        ):
            lines.append(
                f"SPEAKER {session} 1 {seg.start:.3f} {seg.duration:.3f} "
                f"<NA> <NA> {seg.speaker} <NA> <NA>"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def read_rttm(path) -> dict:
    """Read an RTTM file into ``{session_id: Timeline}``."""
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(";"):
                continue
            parts = line.split()
            if len(parts) < 8 or parts[0] != "SPEAKER":
                raise ValueError(f"{path}:{lineno}: not an RTTM SPEAKER line")
            session, tbeg, tdur, speaker = parts[1], parts[3], parts[4], parts[7]
            start = float(tbeg)
            raw.setdefault(session, []).append(
                Segment(speaker, start, start + float(tdur))
            )
    return {session: Timeline(segs) for session, segs in raw.items()}
