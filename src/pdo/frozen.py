"""The shared base of the immutable value types."""

__all__ = ["Frozen"]


class Frozen:
    """A value whose slots its constructors set once, through
    ``object.__setattr__``; assigning or deleting an attribute afterwards
    raises ``AttributeError``.  Subclasses define ``__reduce__``, so that copy
    and pickle rebuild through a constructor instead of setting slots."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")
