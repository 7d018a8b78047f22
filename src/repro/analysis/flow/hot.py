"""Hot-path identification: the transitive closure of the sim inner loop.

The simulator's cost concentrates in a small set of per-event code:
the event-dispatch loop itself, link/wireless sampling, and the per
exchange MNTP/SNTP handlers.  :data:`HOT_ROOTS` names those entry
points; :func:`hot_closure` walks the project call graph from them
(plus any function annotated ``# repro: hot``) and returns every
reachable function with a witness chain back to its root.  OBS003 only
reports inside this closure — a direct ``trace.emit`` in a report
formatter is fine; the same call in the wireless sampler is not.

The static graph cannot follow the event queue's dynamic dispatch
(``event.callback()``), which is why the roots enumerate the handlers
scheduled onto the queue rather than just ``Simulator.run_until``.
New hot entry points are added with a ``# repro: hot`` comment on the
``def`` line, not by editing this list.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.flow.project import Project
from repro.analysis.flow.summary import MODULE_BODY

#: Statically-known entry points of the simulator inner loop.
HOT_ROOTS: Tuple[str, ...] = (
    "repro.simcore.simulator.Simulator.run_until",
    "repro.simcore.simulator.Simulator.run_to_completion",
    "repro.simcore.simulator.SimProcess._advance",
    "repro.wireless.channel.WirelessChannel._advance",
    "repro.wireless.channel.WirelessChannel._step_once",
    "repro.net.link.Link.send",
    "repro.ntp.sntp_client.SntpClient.query",
    "repro.ntp.sntp_client.SntpClient.on_datagram",
    "repro.ntp.server.NtpServer.on_datagram",
    "repro.core.protocol.Mntp._warmup_round",
    "repro.core.protocol.Mntp._warmup_query",
    "repro.core.protocol.Mntp._regular_round",
    "repro.core.protocol.Mntp._regular_query",
    "repro.core.protocol.Mntp._handle_offset",
)

#: Cap on witness-chain hops shown in messages (keeps them one line).
_CHAIN_SHOWN = 4


def hot_closure(project: Project) -> Dict[str, List[str]]:
    """Full name -> witness chain (root first) for every hot function.

    Roots are the :data:`HOT_ROOTS` present in the project plus every
    ``# repro: hot`` annotated function.  Traversal is breadth-first in
    recorded call order, so the chain for each function is a shortest
    one and deterministic across runs.  Module bodies never enter the
    closure (import-time cost is not per-event cost).  The result is
    memoized on the project instance.
    """
    cached = getattr(project, "_hot_closure", None)
    if cached is not None:
        return cached
    roots = [full for full in HOT_ROOTS if full in project.functions]
    roots.extend(
        full
        for full, entry in sorted(project.functions.items())
        if entry.info.hot_annotated and full not in roots
    )
    closure: Dict[str, List[str]] = {}
    queue: List[str] = []
    for root in roots:
        if root not in closure:
            closure[root] = [root]
            queue.append(root)
    index = 0
    while index < len(queue):
        current = queue[index]
        index += 1
        entry = project.functions[current]
        module = entry.module.dotted()
        for call in entry.info.calls:
            callee = project.resolve(call.ref, module)
            if callee is None or callee.info.qualname == MODULE_BODY:
                continue
            # Synthetic constructor entries (dataclasses without an
            # __init__) are not project functions: no body, no sites.
            if callee.full in closure or callee.full not in project.functions:
                continue
            closure[callee.full] = closure[current] + [callee.full]
            queue.append(callee.full)
    project._hot_closure = closure  # type: ignore[attr-defined]
    return closure


def chain_label(chain: List[str]) -> str:
    """Stable human text for a witness chain (used inside messages)."""
    if len(chain) == 1:
        return f"hot root '{chain[0]}'"
    shown = chain
    if len(chain) > _CHAIN_SHOWN:
        shown = chain[: _CHAIN_SHOWN - 1] + ["...", chain[-1]]
    return "hot via " + " -> ".join(shown)
