"""Publisher and subscriber clients.

Clients see whole XML documents and plain XPath subscriptions; path
decomposition, advertisement generation and routing are the overlay's
business (paper §3.1: "This is transparent to publishers and
subscribers").
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Union

from repro import obs

from repro.adverts.generator import generate_advertisements
from repro.adverts.model import Advertisement
from repro.broker.messages import (
    AdvertiseMsg,
    PublishMsg,
    SubscribeMsg,
    UnadvertiseMsg,
    UnsubscribeMsg,
)
from repro.dtd.model import DTD
from repro.xmldoc.document import Publication, XMLDocument
from repro.xpath.ast import XPathExpr
from repro.xpath.parser import parse_xpath


def _as_expr(expr: Union[str, XPathExpr]) -> XPathExpr:
    if isinstance(expr, XPathExpr):
        return expr
    return parse_xpath(expr)


class SubscriberClient:
    """A data consumer: registers XPEs, receives documents."""

    def __init__(self, client_id: str, overlay, broker_id: str):
        self.client_id = client_id
        self._overlay = overlay
        self.broker_id = broker_id
        self.subscriptions: Set[XPathExpr] = set()
        self.received: List[PublishMsg] = []
        #: doc_id -> bitmask whose bit *n* is set once path *n* was
        #: delivered — the explicit duplicate filter: a redelivered
        #: publication (retransmission, crash-recovery replay) is
        #: counted once and only once.  One entry per delivered
        #: document; path ids stay below ``wire.PATH_ID_LIMIT``.
        self._seen_paths: Dict[str, int] = {}
        #: Redeliveries suppressed so far (also mirrored into the
        #: ``network.clients.duplicates`` metric).
        self.duplicates = 0

    def subscribe(self, expr: Union[str, XPathExpr]):
        expr = _as_expr(expr)
        self.subscriptions.add(expr)
        self._overlay.submit(self.client_id, SubscribeMsg(expr=expr, subscriber_id=self.client_id))

    def unsubscribe(self, expr: Union[str, XPathExpr]):
        expr = _as_expr(expr)
        self.subscriptions.discard(expr)
        self._overlay.submit(
            self.client_id,
            UnsubscribeMsg(expr=expr, subscriber_id=self.client_id),
        )

    def receive(self, msg: PublishMsg, hops: int) -> bool:
        """Called by the overlay when the edge broker delivers a path.

        Returns True for a first delivery; a redelivered publication
        (same doc id and path id) is suppressed and returns False.
        """
        publication = msg.publication
        seen = self._seen_paths.get(publication.doc_id, 0)
        bit = 1 << publication.path_id
        if seen & bit:
            self.duplicates += 1
            obs.inc("network.clients.duplicates")
            return False
        self._seen_paths[publication.doc_id] = seen | bit
        self.received.append(msg)
        return True

    def delivered_documents(self) -> Set[str]:
        """Distinct document ids seen so far."""
        return {msg.publication.doc_id for msg in self.received}

    def received_publications(self, doc_id: str) -> List[PublishMsg]:
        """Every matching path of one document, in arrival order — the
        per-document view a client library would reassemble from."""
        return [
            msg
            for msg in self.received
            if msg.publication.doc_id == doc_id
        ]

    def matched_paths(self, doc_id: str) -> List[tuple]:
        """Distinct matched paths of one document (arrival order)."""
        distinct: List[tuple] = []
        seen: Set[tuple] = set()
        for msg in self.received_publications(doc_id):
            path = msg.publication.path
            if path not in seen:
                seen.add(path)
                distinct.append(path)
        return distinct

    def __repr__(self):
        return "SubscriberClient(%r@%r, %d subs, %d received)" % (
            self.client_id,
            self.broker_id,
            len(self.subscriptions),
            len(self.received),
        )


class PublisherClient:
    """A data producer: advertises its DTD, publishes documents."""

    def __init__(self, client_id: str, overlay, broker_id: str):
        self.client_id = client_id
        self._overlay = overlay
        self.broker_id = broker_id
        self.advertised: List[str] = []
        #: Numbers this client's default advertisement ids; per client,
        #: so one scenario built twice in a process gets the same ids.
        self._adv_counter = itertools.count()

    def advertise(self, advert: Advertisement, adv_id: Optional[str] = None) -> str:
        if adv_id is None:
            adv_id = "%s/adv%d" % (self.client_id, next(self._adv_counter))
        self.advertised.append(adv_id)
        self._overlay.submit(
            self.client_id,
            AdvertiseMsg(adv_id=adv_id, advert=advert, publisher_id=self.client_id),
        )
        return adv_id

    def advertise_dtd(self, dtd: DTD) -> List[str]:
        """Derive and flood the advertisement set of *dtd* (paper §3.1)."""
        return [
            self.advertise(advert)
            for advert in generate_advertisements(dtd)
        ]

    def unadvertise(self, adv_id: str):
        self.advertised.remove(adv_id)
        self._overlay.submit(self.client_id, UnadvertiseMsg(adv_id=adv_id))

    def publish_document(self, document: XMLDocument):
        """Decompose *document* into publications and submit them (the
        host carries consecutive publications of one document as one
        group — see ``HostKernel.join``)."""
        size = document.size_bytes()
        now = self._overlay.now
        for publication in document.publications():
            self._overlay.submit(
                self.client_id,
                PublishMsg(
                    publication=publication,
                    publisher_id=self.client_id,
                    doc_size_bytes=size,
                    issued_at=now,
                ),
            )

    def publish_paths(
        self,
        paths: Sequence[Sequence[str]],
        doc_id: str,
        size_bytes: int = 0,
    ):
        """Publish pre-decomposed paths (workload-driver convenience)."""
        now = self._overlay.now
        for i, path in enumerate(paths):
            self._overlay.submit(
                self.client_id,
                PublishMsg(
                    publication=Publication(
                        doc_id=doc_id, path_id=i, path=tuple(path)
                    ),
                    publisher_id=self.client_id,
                    doc_size_bytes=size_bytes,
                    issued_at=now,
                ),
            )

    def __repr__(self):
        return "PublisherClient(%r@%r, %d adverts)" % (
            self.client_id,
            self.broker_id,
            len(self.advertised),
        )
