"""semproxy: a request-coalescing reverse proxy for SOAP web services.

Requests are grouped by a key built from their call-parameter sequences,
and one serialized backend response is fanned out to every identical
request that arrives while its call is in flight or within its short time
window.
"""

from .config import ProxyConfig
from .soap import ParseError, ResultSet, SoapRequest

__all__ = ["ProxyConfig", "ParseError", "ResultSet", "SoapRequest"]
__version__ = "0.1.0"
