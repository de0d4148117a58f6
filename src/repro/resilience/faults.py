"""Deterministic fault injection behind ``REPRO_FAULT_PLAN``.

Every recovery path of the resilient runner — retry-on-exception, kill-and-
retry on timeout, pool respawn on a crashed worker, graceful Ctrl-C — is
exercised end-to-end by *injecting* the fault at a named site instead of
hoping one occurs.  A fault plan is a semicolon-separated list of rules::

    REPRO_FAULT_PLAN="worker@3:fail*2;worker@5:exit=139;kernel:hang=10*1"

with the rule grammar::

    rule   = site[@task]:action
    action = fail[*N] | hang=SECONDS[*N] | exit=CODE[*N] | interrupt[*N]

* ``site`` names the injection point.  The built-in sites are ``worker``
  (worker entry, before the payload runs — task index and attempt number are
  known there), ``kernel`` (lane-kernel compilation: in the caller of
  :func:`repro.sim.kernels.compile_kernel`, on the background compile
  worker for :func:`~repro.sim.kernels.compile_kernel_async`) and
  ``cache`` (every :class:`~repro.bench.cache.ResultCache` read/write).
* ``@task`` restricts the rule to one task index (the resilient runner's
  payload order); without it the rule applies to every task at that site.
* ``*N`` makes the fault transient: it fires for the first ``N`` attempts
  only.  ``worker@3:fail*2`` means "task 3 fails twice, then succeeds" —
  exactly the retry path.  At sites without an attempt number the first
  ``N`` *calls in the process* fire (a process-local counter).
* actions: ``fail`` raises :class:`InjectedFault`; ``hang=S`` sleeps ``S``
  seconds (driving the timeout path); ``exit=C`` calls ``os._exit(C)``
  (``exit=139`` models a segfaulted worker — only meaningful inside a worker
  process); ``interrupt`` raises :class:`KeyboardInterrupt` (the Ctrl-C
  path).

Determinism across processes: the resilient runner captures the plan text in
the parent and ships it with every task attempt, where the worker installs it
via :func:`install_plan` — so plans reach pool workers even when the
``forkserver`` was started before the plan was set, and the worker-site
decision depends only on ``(site, task, attempt)``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: environment variable holding the fault plan ("" / unset = no faults)
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: actions a rule may take
ACTIONS = ("fail", "hang", "exit", "interrupt")

_SYNTAX = "site[@task]:action with action = fail|hang=S|exit=C|interrupt, optional *N"


class InjectedFault(RuntimeError):
    """The exception raised by a ``fail`` rule."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed fault-plan rule."""

    site: str
    action: str
    task: Optional[int] = None
    #: seconds for ``hang``, exit code for ``exit``; unused otherwise
    value: float = 0.0
    #: fire for the first ``count`` attempts only (None = always)
    count: Optional[int] = None


def parse_plan(text: str) -> Tuple[FaultRule, ...]:
    """Parse a fault-plan string into rules (raises ValueError on bad syntax)."""
    rules = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rules.append(_parse_rule(chunk))
        except ValueError as error:
            raise ValueError(
                f"bad fault rule {chunk!r}: {error.args[0]} (syntax: {_SYNTAX})"
            ) from None
    return tuple(rules)


def _parse_rule(chunk: str) -> FaultRule:
    location, separator, action_text = chunk.partition(":")
    if not separator or not action_text:
        raise ValueError("missing ':action'")
    site, _, task_text = location.partition("@")
    site = site.strip()
    if not site:
        raise ValueError("empty site name")
    task: Optional[int] = None
    if task_text:
        try:
            task = int(task_text)
        except ValueError:
            raise ValueError(f"task must be an integer, got {task_text!r}")
    count: Optional[int] = None
    if "*" in action_text:
        action_text, _, count_text = action_text.rpartition("*")
        try:
            count = int(count_text)
        except ValueError:
            raise ValueError(f"count must be an integer, got {count_text!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
    action, _, value_text = action_text.partition("=")
    action = action.strip()
    if action not in ACTIONS:
        raise ValueError(
            f"unknown action {action!r}; expected one of {', '.join(ACTIONS)}"
        )
    value = 0.0
    if action == "hang":
        if not value_text:
            raise ValueError("hang needs =SECONDS")
        value = float(value_text)
        if value < 0:
            raise ValueError("hang seconds must be >= 0")
    elif action == "exit":
        value = float(value_text) if value_text else 1.0
    elif value_text:
        raise ValueError(f"action {action!r} takes no =value")
    return FaultRule(site=site, action=action, task=task, value=value, count=count)


#: plan explicitly installed in this process (wins over the environment)
_INSTALLED: Optional[str] = None
#: (text, parsed rules) parse cache
_PARSED: Optional[Tuple[str, Tuple[FaultRule, ...]]] = None
#: process-local firing counters for sites without an attempt number,
#: keyed by (plan text, rule position)
_FIRED: Dict[Tuple[str, int], int] = {}


def install_plan(text: Optional[str]) -> None:
    """Install ``text`` as this process's fault plan (None = back to env).

    The resilient runner calls this inside every worker attempt with the
    parent's plan text, so plans deterministically reach pool workers.
    """
    global _INSTALLED
    _INSTALLED = text or None


def installed_plan() -> Optional[str]:
    """The explicitly installed plan (None when only the env is in effect)."""
    return _INSTALLED


def plan_text() -> Optional[str]:
    """The active plan text: the installed one, else ``REPRO_FAULT_PLAN``."""
    if _INSTALLED is not None:
        return _INSTALLED
    return os.environ.get(FAULT_PLAN_ENV) or None


def active_rules() -> Tuple[FaultRule, ...]:
    """The parsed rules of the active plan (cached per plan text)."""
    global _PARSED
    text = plan_text()
    if not text:
        return ()
    if _PARSED is None or _PARSED[0] != text:
        _PARSED = (text, parse_plan(text))
    return _PARSED[1]


def reset() -> None:
    """Forget the installed plan, parse cache and firing counters (tests)."""
    global _INSTALLED, _PARSED
    _INSTALLED = None
    _PARSED = None
    _FIRED.clear()


def maybe_inject(
    site: str, task: Optional[int] = None, attempt: Optional[int] = None
) -> None:
    """Fire the first matching rule of the active plan at ``site`` (if any).

    No-op (one tuple comparison) when no plan is active, so injection sites
    are safe on hot-ish paths like cache I/O.
    """
    rules = active_rules()
    if not rules:
        return
    text = plan_text() or ""
    for position, rule in enumerate(rules):
        if rule.site != site:
            continue
        if rule.task is not None and rule.task != task:
            continue
        if rule.count is not None:
            if attempt is not None:
                if attempt >= rule.count:
                    continue
            else:
                key = (text, position)
                if _FIRED.get(key, 0) >= rule.count:
                    continue
                _FIRED[key] = _FIRED.get(key, 0) + 1
        _trigger(rule, site, task, attempt)
        return


def _trigger(
    rule: FaultRule, site: str, task: Optional[int], attempt: Optional[int]
) -> None:
    where = f"site {site!r}" + (f" task {task}" if task is not None else "")
    if attempt is not None:
        where += f" attempt {attempt}"
    if rule.action == "hang":
        time.sleep(rule.value)
        return
    if rule.action == "exit":
        os._exit(int(rule.value))
    if rule.action == "interrupt":
        raise KeyboardInterrupt(f"injected interrupt at {where}")
    raise InjectedFault(f"injected fault at {where}")
