"""How a corpus scenario passes: typed rejection or clean degradation.

Each scenario in ``test_corpus.py`` states the contract the stack must
honour under it with one of two helpers:

* ``with expect_error(ExcType, ...):`` -- the block must be rejected
  with one of these typed :class:`~repro.errors.ReproError` classes;
* ``assert_clean(check, obs)`` -- the scenario ran to the end and its
  observation must satisfy ``check`` (wrong answers are worse than
  errors).

==============================================  ======================
outcome                                         result
==============================================  ======================
an expected typed error                         pass
another ``ReproError``                          pass with a warning
an untyped error, or the block never raises     test failure
``check(obs)`` is ``True``                      pass
``check(obs)`` is a string                      pass, string warned
``check(obs)`` is anything else, or raises      test failure
==============================================  ======================
"""

from __future__ import annotations

import contextlib
import warnings

import pytest

from repro.errors import ReproError

__all__ = ["assert_clean", "expect_error"]


@contextlib.contextmanager
def expect_error(*error_types: type):
    """The block must raise one of ``error_types``."""
    if not error_types:
        raise ValueError("expect_error needs at least one exception type")
    try:
        yield
    except error_types:
        return
    except ReproError as exc:
        warnings.warn(f"typed but unexpected {type(exc).__name__}: {exc}",
                      stacklevel=3)
        return
    except Exception as exc:  # noqa: BLE001 - an untyped error fails
        pytest.fail(f"unhandled {type(exc).__name__}: {exc}")
    wanted = "/".join(t.__name__ for t in error_types)
    pytest.fail(f"accepted silently (expected {wanted})")


def assert_clean(check, obs) -> None:
    """``check(obs)`` must hold; a string it returns is a warning."""
    try:
        verdict = check(obs)
    except Exception as exc:  # noqa: BLE001 - a broken check fails
        pytest.fail(f"check raised {type(exc).__name__}: {exc}")
    if isinstance(verdict, str):
        warnings.warn(verdict, stacklevel=2)
    elif verdict is not True:
        pytest.fail(f"degradation contract violated: {obs!r}")
