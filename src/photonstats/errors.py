"""Exception types shared across the package, and the field checker that
reports config violations as JSON pointers."""

import dataclasses


class DomainError(ValueError):
    """A parameter lies outside its admissible range."""


class ShapeError(ValueError):
    """Vector or matrix dimensions are incompatible."""


class TruncationError(ValueError):
    """Probability mass folded by truncation exceeds the allowed bound."""


class InsufficientDataError(ValueError):
    """A histogram or sample is empty where counts are required."""


class ConditioningError(RuntimeError):
    """A linear solve was refused because the system is too ill-conditioned;
    the message names the remedy."""


def field_problems(doc, cls, pointer: str = "") -> list[str]:
    """One "<pointer>/<field>: <message>" line for each unknown, missing,
    mistyped or out-of-range field of document doc for config dataclass cls.

    cls.RULES maps each scalar field to (type, predicate, rule text); a
    field without a default is required, and a bool is never a number.
    """
    if not isinstance(doc, dict):
        return [f"{pointer or '/'}: must be an object, got {doc!r}"]
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    lines = [f"{pointer}/{key}: unknown field" for key in doc if key not in fields]
    for name, default in fields.items():
        kind, ok, rule = cls.RULES.get(name, (object, None, ""))
        value = doc.get(name, default)
        if value is dataclasses.MISSING:
            lines.append(f"{pointer}/{name}: required field is missing")
        elif ok and (isinstance(value, bool) or not isinstance(value, kind) or not ok(value)):
            lines.append(f"{pointer}/{name}: must be {rule}, got {value!r}")
    return lines


def check_fields(obj) -> None:
    """Raise one DomainError listing every rule the config dataclass obj breaks."""
    problems = field_problems(vars(obj), type(obj))
    if problems:
        raise DomainError("; ".join(problems))
