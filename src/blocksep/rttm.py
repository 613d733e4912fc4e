"""Speaker activity timelines and the line-oriented RTTM segment format."""

import math
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
    """A set of :class:`Segment` activity segments.

    Segments of the same speaker are normalized on construction: sorted and
    merged wherever they touch or overlap.
    """

    def __init__(self, segments=()):
        by_speaker = {}
        for seg in segments:
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


def _check_field(kind: str, name) -> None:
    if str(name).split() != [str(name)]:
        raise ValueError(f"RTTM {kind} must be non-empty and hold no whitespace, "
                         f"not {name!r}")


def write_rttm(path, timelines: dict) -> None:
    """Write ``{session_id: Timeline}`` in RTTM format.

    One line per segment:
    ``SPEAKER <file> 1 <tbeg> <tdur> <NA> <NA> <spk> <NA> <NA>``

    Times are written in seconds with 3 decimals.  An empty session id or
    speaker name, one holding whitespace, or a segment whose written
    duration would read back as zero (one shorter than 0.5 ms) would not
    read back as written, so each raises ``ValueError`` before the file is
    opened.
    """
    for session, timeline in timelines.items():
        _check_field("session id", session)
        for speaker in timeline.speakers():
            _check_field("speaker name", speaker)
    lines = []
    for session in sorted(timelines):
        for seg in sorted(
            timelines[session].segments, key=lambda s: (s.start, s.speaker)
        ):
            tbeg, tdur = f"{seg.start:.3f}", f"{seg.duration:.3f}"
            # the check of read_rttm, on the times as written
            if not float(tbeg) < float(tbeg) + float(tdur):
                raise ValueError(f"RTTM segment of speaker {seg.speaker!r} in session "
                                 f"{session!r} lasts {seg.duration} s, which is written "
                                 f"as begin time {tbeg} and duration {tdur}")
            lines.append(
                f"SPEAKER {session} 1 {tbeg} {tdur} "
                f"<NA> <NA> {seg.speaker} <NA> <NA>"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def read_rttm(path) -> dict:
    """Read an RTTM file into ``{session_id: Timeline}``.

    A line that is not a SPEAKER line, or whose begin time is not a finite
    number of at least 0 or whose duration is not a positive finite number,
    raises ``ValueError`` naming ``path:line``.
    """
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
            try:
                start, end = float(tbeg), float(tbeg) + float(tdur)
            except ValueError:
                start = end = math.nan
            # NaN fails every comparison, and start < end rejects a duration
            # too small to move the start as well as a non-positive one
            if not 0 <= start < end < math.inf:
                raise ValueError(f"{path}:{lineno}: begin time {tbeg!r} and duration "
                                 f"{tdur!r} are not a finite time of at least 0 "
                                 f"and a positive finite duration")
            raw.setdefault(session, []).append(Segment(speaker, start, end))
    return {session: Timeline(segs) for session, segs in raw.items()}
