"""The base of the package's frozen value classes."""

from operator import attrgetter


class Frozen:
    """An immutable __slots__ value.  Its key, the fields that ==, hash, pickle
    and repr read, is __slots__ unless the class sets _key; a pickle calls the
    class with the key fields.  _get reads the key in C (a one-name key: the field)."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = vars(cls).get("_key", cls.__slots__)
        cls._get = attrgetter(*cls._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._key))

    def __eq__(self, other):  # exact type: a subclass or a tuple is never equal
        return type(other) is type(self) and self._get(self) == self._get(other)

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._key, self._values()))
        return f"{type(self).__name__}({fields})"
