"""Exception types shared across the package.

Validation errors carry their witnesses as attributes (the offending
label, downset, or pair of downsets) so callers can inspect failures
programmatically; the message renders the same witness with labels.
"""

from __future__ import annotations

__all__ = [
    "CapExceededError",
    "CycleDetectedError",
    "DuplicateLabelError",
    "ImageNotDownsetError",
    "MissingMaximalError",
    "NotASieveError",
    "NotIdempotentError",
    "NotInflationaryError",
    "NotMeetPreservingError",
    "NucleusAxiomError",
    "PosetMismatchError",
    "PosetSyntaxError",
    "StabilityFailError",
    "TopologyAxiomError",
    "TransitivityFailError",
    "TriposetError",
    "UnknownLabelError",
]


class TriposetError(Exception):
    """Base class for every error raised by this package."""


class DuplicateLabelError(TriposetError):
    def __init__(self, label: str, line: int | None = None):
        self.label = label
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"duplicate label {label!r}{where}")


class UnknownLabelError(TriposetError):
    def __init__(self, label: str, line: int | None = None):
        self.label = label
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unknown label {label!r}{where}")


class CycleDetectedError(TriposetError):
    """The declared relation relates two distinct elements both ways."""

    def __init__(self, first: str, second: str):
        self.first = first
        self.second = second
        super().__init__(
            f"cycle detected: {first!r} and {second!r} are below each other"
        )


class CapExceededError(TriposetError):
    """An enumeration was asked to run beyond its configured size cap."""


class PosetMismatchError(TriposetError):
    def __init__(self, message: str = "operands belong to different posets"):
        super().__init__(message)


class PosetSyntaxError(TriposetError):
    """A poset document line that does not match the text format."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NucleusAxiomError(TriposetError):
    """A candidate nucleus table violates one of the nucleus axioms."""


class ImageNotDownsetError(NucleusAxiomError):
    def __init__(self, downset, image):
        self.downset = downset
        self.image = image
        super().__init__(f"image {image} of {downset} is not downward closed")


class NotInflationaryError(NucleusAxiomError):
    def __init__(self, downset):
        self.downset = downset
        super().__init__(f"{downset} is not contained in its image")


class NotIdempotentError(NucleusAxiomError):
    def __init__(self, downset):
        self.downset = downset
        super().__init__(f"applying the table twice moves the image of {downset}")


class NotMeetPreservingError(NucleusAxiomError):
    def __init__(self, left, right):
        self.left = left
        self.right = right
        super().__init__(
            f"image of {left} meet {right} differs from the meet of the images"
        )


class TopologyAxiomError(TriposetError):
    """A candidate covering assignment violates one of the topology axioms."""


class NotASieveError(TopologyAxiomError):
    def __init__(self, point: str, candidate):
        self.point = point
        self.candidate = candidate
        super().__init__(f"{candidate} is not a sieve on {point!r}")


class MissingMaximalError(TopologyAxiomError):
    def __init__(self, point: str):
        self.point = point
        super().__init__(f"covering family at {point!r} omits the maximal sieve")


class StabilityFailError(TopologyAxiomError):
    def __init__(self, point: str, lower: str, sieve):
        self.point = point
        self.lower = lower
        self.sieve = sieve
        super().__init__(
            f"sieve {sieve} covers {point!r} but its pullback to {lower!r} does not cover"
        )


class TransitivityFailError(TopologyAxiomError):
    def __init__(self, point: str, cover, candidate):
        self.point = point
        self.cover = cover
        self.candidate = candidate
        super().__init__(
            f"{candidate} is covered locally on the covering sieve {cover} "
            f"of {point!r} but is not in the family"
        )
