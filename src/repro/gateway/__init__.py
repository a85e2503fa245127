"""HTTP/JSON gateway over the :mod:`repro.api` facade.

REST endpoints for the online-monitoring service — register documents,
stream events, query verdicts, scrape merged metrics — served as asyncio
streams on the :class:`repro.api.Gateway`'s own loop, with zero new
dependencies.  The package deliberately knows nothing about the TCP
service: handlers await only the :class:`repro.api.Gateway` facade (tests/gateway/test_lint.py bans
``repro.service`` imports here), so the wire protocol can keep evolving
behind the stable API surface.

Entry points: ``repro serve --http-port N`` (and ``--metrics-port N``,
which serves only the metrics routes), ``repro gateway``, and
:func:`repro.api.serve_http`.  Endpoint reference: ``docs/http-api.md``.
"""

from repro.gateway.app import GatewayServer, MetricsServer
from repro.gateway.errors import error_envelope, status_for

__all__ = ["GatewayServer", "MetricsServer", "error_envelope", "status_for"]
