#!/usr/bin/env python
"""A real TCP deployment of the dissemination network on localhost.

The same broker state machine the simulator drives runs here in one OS
process per broker, behind TCP listeners speaking the newline-delimited
JSON wire protocol — the runnable equivalent of the paper's
cluster/PlanetLab deployment, shrunk to one machine.  Also demonstrates
broker snapshots: the middle broker's state is shipped back to this
process, serialised to JSON and printed.

Run:  python examples/tcp_deployment.py
"""


from repro.adverts import generate_advertisements
from repro.broker import RoutingConfig, SubscribeMsg, AdvertiseMsg, PublishMsg
from repro.broker.persistence import snapshot_json
from repro.dtd import parse_dtd
from repro.runtime.multiprocess import MultiprocessDeployment
from repro.xmldoc import XMLDocument
from repro.xpath import parse_xpath

ORDERS_DTD = """
<!ELEMENT orders (order*)>
<!ELEMENT order (customer, sku, qty, region)>
<!ELEMENT customer (#PCDATA)>
<!ELEMENT sku (#PCDATA)>
<!ELEMENT qty (#PCDATA)>
<!ELEMENT region (#PCDATA)>
"""

ORDER_DOC = """
<orders>
  <order>
    <customer>ACME Corp</customer>
    <sku>WIDGET-42</sku>
    <qty>1000</qty>
    <region>EMEA</region>
  </order>
</orders>
"""


def main():
    dtd = parse_dtd(ORDERS_DTD)
    deployment = MultiprocessDeployment(
        config=RoutingConfig.with_adv_with_cov()
    )
    for name in ("edge-west", "core", "edge-east"):
        deployment.add_broker(name)
    deployment.link("edge-west", "core")
    deployment.link("core", "edge-east")
    deployment.start()

    try:
        print("broker processes: %s" % ", ".join(deployment.broker_ids))
        for a, b in sorted(deployment.links):
            print("  TCP link %s <-> %s" % (a, b))
        deployment.attach_publisher("order-entry", "edge-west")
        fulfilment = deployment.attach_subscriber("fulfilment", "edge-east")

        for index, advert in enumerate(generate_advertisements(dtd)):
            deployment.submit(
                "order-entry",
                AdvertiseMsg(
                    adv_id="orders/%d" % index,
                    advert=advert,
                    publisher_id="order-entry",
                ),
            )
        deployment.run()

        deployment.submit(
            "fulfilment",
            SubscribeMsg(
                expr=parse_xpath("/orders/order/sku"),
                subscriber_id="fulfilment",
            ),
        )
        deployment.run()

        document = XMLDocument.parse(ORDER_DOC, doc_id="order-1001")
        for publication in document.publications():
            deployment.submit(
                "order-entry",
                PublishMsg(publication=publication, publisher_id="order-entry"),
            )
        deployment.run()

        print(
            "\nfulfilment received over TCP: %s"
            % sorted(fulfilment.delivered_documents())
        )
        assert fulfilment.delivered_documents() == {"order-1001"}

        core = deployment.restore_brokers()["core"]
        print("\ncore broker state snapshot (persistable JSON):")
        text = snapshot_json(core)
        print(
            "\n".join(
                line for line in text.splitlines()[:14]
            )
            + "\n  ... (%d bytes total)" % len(text)
        )
    finally:
        deployment.stop()


if __name__ == "__main__":
    main()
