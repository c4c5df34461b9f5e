"""semproxy: a request-coalescing reverse proxy for SOAP web services.

Concurrent requests are batched into short time windows, grouped by a key
built from their call-parameter sequences, and one serialized backend
response is fanned out to every identical request in the window.
"""

from .config import ProxyConfig
from .soap import ParseError, ResultSet, SoapRequest

__all__ = ["ProxyConfig", "ParseError", "ResultSet", "SoapRequest"]
__version__ = "0.1.0"
