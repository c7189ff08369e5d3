//! OCP initiator front end.

use super::{deliver_one, FrontEnd, Initiator};
use noc_protocols::ocp::{OcpPort, OcpResp, OcpSocket};
use noc_transaction::{Opcode, StreamId, TransactionRequest, TransactionResponse};
use std::collections::VecDeque;

/// Hosts an [`OcpMaster`](noc_protocols::ocp::OcpMaster); threads map
/// one-to-one onto NoC tags, so pair this with
/// [`noc_transaction::OrderingModel::Threaded`].
pub type OcpInitiator = Initiator<OcpSocket>;

impl FrontEnd for OcpSocket {
    type Pending = VecDeque<OcpResp>;

    fn deliver(pending: &mut Self::Pending, port: &mut OcpPort) {
        deliver_one(pending, &mut port.resp);
    }

    fn pull_request(port: &mut OcpPort) -> Option<TransactionRequest> {
        let req = port.req.take()?;
        let mut builder = TransactionRequest::builder(req.opcode)
            .address(req.addr)
            .burst(req.burst)
            .stream(StreamId::new(req.thread as u16));
        if req.opcode.is_write() {
            builder = builder.data(req.data);
        }
        Some(builder.build().expect("agent produces valid requests"))
    }

    fn push_response(
        pending: &mut Self::Pending,
        stream: StreamId,
        opcode: Opcode,
        resp: TransactionResponse,
    ) {
        let data = if opcode.is_read() {
            resp.data().to_vec()
        } else {
            Vec::new()
        };
        pending.push_back(OcpResp {
            thread: stream.raw() as u8,
            status: resp.status(),
            data,
        });
    }

    fn holds_traffic(pending: &Self::Pending, port: &OcpPort) -> bool {
        !pending.is_empty() || port.req.valid()
    }

    fn responding(port: &OcpPort) -> bool {
        port.resp.valid()
    }
}
