"""Tests for the consolidated ``REPRO_*`` env parsing helpers.

Every runtime knob goes through :mod:`repro.utils.config`, so these
tests pin two things: the parsing semantics of each helper, and the
single shared error format (variable name first, expected shape,
quoted raw value) that call sites across the library inherit.
"""

import pytest

from repro.utils import config
from repro.utils.config import (
    ConfigError,
    env_flag,
    env_float,
    env_int,
    env_raw,
    env_str,
)

NAME = "REPRO_TEST_KNOB"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(NAME, raising=False)


# -- env_raw -------------------------------------------------------------


def test_raw_unset_and_blank_are_none(monkeypatch):
    assert env_raw(NAME) is None
    monkeypatch.setenv(NAME, "   ")
    assert env_raw(NAME) is None


def test_raw_strips(monkeypatch):
    monkeypatch.setenv(NAME, "  value ")
    assert env_raw(NAME) == "value"


# -- env_int -------------------------------------------------------------


def test_int_parses(monkeypatch):
    monkeypatch.setenv(NAME, " 7 ")
    assert env_int(NAME) == 7


def test_int_unset_is_none():
    assert env_int(NAME) is None


def test_int_garbage_raises(monkeypatch):
    monkeypatch.setenv(NAME, "many")
    with pytest.raises(ConfigError, match=r"REPRO_TEST_KNOB must be an integer, got 'many'"):
        env_int(NAME)


def test_int_minimum(monkeypatch):
    monkeypatch.setenv(NAME, "0")
    with pytest.raises(ConfigError, match=r"an integer >= 1, got '0'"):
        env_int(NAME, minimum=1)
    assert env_int(NAME, minimum=0) == 0


def test_int_rejects_float_spelling(monkeypatch):
    monkeypatch.setenv(NAME, "2.5")
    with pytest.raises(ConfigError):
        env_int(NAME)


# -- env_float -----------------------------------------------------------


def test_float_parses(monkeypatch):
    monkeypatch.setenv(NAME, "3.5")
    assert env_float(NAME) == 3.5


def test_float_garbage_raises(monkeypatch):
    monkeypatch.setenv(NAME, "soon")
    with pytest.raises(ConfigError, match=r"REPRO_TEST_KNOB must be a number, got 'soon'"):
        env_float(NAME)


def test_float_rejects_nan(monkeypatch):
    monkeypatch.setenv(NAME, "nan")
    with pytest.raises(ConfigError):
        env_float(NAME)


def test_float_minimum_and_positive(monkeypatch):
    monkeypatch.setenv(NAME, "0")
    assert env_float(NAME, minimum=0.0) == 0.0
    with pytest.raises(ConfigError, match=r"a number > 0, got '0'"):
        env_float(NAME, positive=True)
    monkeypatch.setenv(NAME, "-1")
    with pytest.raises(ConfigError, match=r"a number >= 0, got '-1'"):
        env_float(NAME, minimum=0.0)


# -- env_flag ------------------------------------------------------------


@pytest.mark.parametrize("raw", ["1", "true", "YES", " On "])
def test_flag_truthy(monkeypatch, raw):
    monkeypatch.setenv(NAME, raw)
    assert env_flag(NAME) is True


@pytest.mark.parametrize("raw", ["0", "false", "NO", "off"])
def test_flag_falsy(monkeypatch, raw):
    monkeypatch.setenv(NAME, raw)
    assert env_flag(NAME) is False


def test_flag_unset_is_false():
    assert env_flag(NAME) is False


def test_flag_garbage_raises(monkeypatch):
    monkeypatch.setenv(NAME, "2")
    with pytest.raises(ConfigError, match="REPRO_TEST_KNOB"):
        env_flag(NAME)


# -- env_str -------------------------------------------------------------


def test_str_choices(monkeypatch):
    monkeypatch.setenv(NAME, "fast")
    assert env_str(NAME, choices=("fast", "slow")) == "fast"
    with pytest.raises(ConfigError, match="REPRO_TEST_KNOB"):
        env_str(NAME, choices=("a", "b"))


def test_config_error_is_value_error():
    # Call sites across the library catch ValueError; the consolidated
    # helper must stay compatible with them.
    assert issubclass(ConfigError, ValueError)


# -- call sites share the format ----------------------------------------


def test_workers_env_uses_config(monkeypatch):
    from repro.experiments.parallel import WORKERS_ENV, resolve_workers

    monkeypatch.setenv(WORKERS_ENV, "many")
    with pytest.raises(ValueError, match=r"REPRO_WORKERS must be an integer >= 0"):
        resolve_workers()


def test_frame_cap_env_uses_config(monkeypatch):
    from repro.service.wire import MAX_FRAME_ENV, max_frame_bytes

    monkeypatch.setenv(MAX_FRAME_ENV, "huge")
    with pytest.raises(ValueError, match=r"REPRO_MAX_FRAME_BYTES must be an integer >= 1"):
        max_frame_bytes()


def test_connect_retry_env_uses_config(monkeypatch):
    from repro.service.wire import CONNECT_RETRY_ENV, resolve_connect_retry

    monkeypatch.setenv(CONNECT_RETRY_ENV, "forever")
    with pytest.raises(ValueError, match=r"REPRO_CONNECT_RETRY must be a number >= 0"):
        resolve_connect_retry(None)
