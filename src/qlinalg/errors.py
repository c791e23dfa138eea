"""Exception types shared across the package, and the base of its result records.

Everything deliberate derives from LinAlgError so callers can catch the whole
family at once; most are also ValueErrors (IndexOutOfRange is an IndexError).
The errors whose values make a request impossible derive from _Impossible.
"""


class _Record:
    """A frozen record whose fields are the subclass's own annotations, in order.

    It behaves as ``@dataclass(frozen=True)`` would (same ``__init__``
    signature, repr, equality, hash and ``match`` pattern) without importing
    ``dataclasses`` and generating code per class, which together cost every
    one-shot CLI run about 30 ms of import.  Every field must be given;
    ``__post_init__``, when defined, runs after the fields are set.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected or repeated {sorted(kwargs)}")
        self.__dict__.update(values)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LinAlgError(Exception):
    """Base class for all errors this package raises on purpose."""


# ---- text / construction problems ----------------------------------------

class MalformedScalar(LinAlgError, ValueError):
    """Text is not an integer, a p/q fraction, or a terminating decimal."""


class ZeroDenominator(LinAlgError, ValueError):
    """A p/q literal with q = 0."""


class RaggedRows(LinAlgError, ValueError):
    """Matrix rows of unequal length."""


class EmptyInput(LinAlgError, ValueError):
    """Nothing was supplied where at least one row/vector is required."""


class MixedDimensions(LinAlgError, ValueError):
    """Vectors of different lengths in one collection."""


class MalformedForm(LinAlgError, ValueError):
    """A coordinate expression that cannot be read at all."""


class NonLinearCoordinate(LinAlgError, ValueError):
    """A coordinate expression with a power or a product of parameters."""


# ---- shape problems -------------------------------------------------------

class DimensionMismatch(LinAlgError, ValueError):
    """Operands have incompatible shapes."""


class NotSquare(LinAlgError, ValueError):
    """A square matrix is required."""


class WrongSize(LinAlgError, ValueError):
    """A matrix of one specific size is required (e.g. exactly 2x2)."""


class IndexOutOfRange(LinAlgError, IndexError):
    """A row/column index beyond the matrix."""


class DegreeTooHigh(LinAlgError, ValueError):
    """Polynomial degree does not fit the requested coordinate space."""


# ---- value-dependent problems ---------------------------------------------

class ZeroScale(LinAlgError, ValueError):
    """Row operations never multiply by zero."""


class NotInvertible(LinAlgError, ValueError):
    """The matrix has determinant zero."""


class _Impossible(LinAlgError, ValueError):
    """The values make the request impossible; the CLI exits 1, not 2."""


class SingularCoefficient(_Impossible):
    """Cramer's rule needs an invertible coefficient matrix."""


class NegativePowerOfSingular(_Impossible):
    """A negative matrix power needs an invertible base."""


class InputDependent(_Impossible):
    """An independent set was required."""


class DependentPoints(_Impossible):
    """Basis-image construction got dependent domain points."""


class NotSpanning(_Impossible):
    """Too few domain points to determine a map on the whole space."""


class ZeroVectorPresent(_Impossible):
    """Orthogonality checks exclude the zero vector."""


class AllZeroInput(_Impossible):
    """The spanned subspace is the zero space; nothing to orthogonalize."""


class UsageError(LinAlgError, ValueError):
    """Bad command-line invocation."""
