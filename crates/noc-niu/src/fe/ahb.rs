//! AHB initiator front end.

use super::{deliver_one, FrontEnd, Initiator};
use noc_protocols::ahb::{AhbPort, AhbResp, AhbSocket};
use noc_transaction::{
    Opcode, RespStatus, ServiceBits, StreamId, TransactionRequest, TransactionResponse,
};
use std::collections::VecDeque;

/// Hosts an [`AhbMaster`](noc_protocols::ahb::AhbMaster) and converts its
/// port traffic to neutral transactions. AHB is fully ordered: the back
/// end should be configured with
/// [`noc_transaction::OrderingModel::FullyOrdered`].
pub type AhbInitiator = Initiator<AhbSocket>;

impl FrontEnd for AhbSocket {
    type Pending = VecDeque<AhbResp>;

    fn deliver(pending: &mut Self::Pending, port: &mut AhbPort) {
        deliver_one(pending, &mut port.resp);
    }

    fn pull_request(port: &mut AhbPort) -> Option<TransactionRequest> {
        let req = port.req.take()?;
        let mut builder = TransactionRequest::builder(req.opcode)
            .address(req.addr)
            .burst(req.burst)
            .stream(StreamId::ZERO);
        if req.locked {
            builder = builder.services(ServiceBits::LOCKED);
        }
        if req.opcode.is_write() {
            builder = builder.data(req.data);
        }
        Some(builder.build().expect("agent produces valid requests"))
    }

    fn push_response(
        pending: &mut Self::Pending,
        _stream: StreamId,
        opcode: Opcode,
        resp: TransactionResponse,
    ) {
        // AHB's HRESP cannot express exclusive statuses; collapse them.
        let status = match resp.status() {
            RespStatus::ExOkay => RespStatus::Okay,
            RespStatus::ExFail => RespStatus::SlvErr,
            s => s,
        };
        let data = if opcode.is_read() {
            resp.data().to_vec()
        } else {
            Vec::new()
        };
        pending.push_back(AhbResp { status, data });
    }

    fn holds_traffic(pending: &Self::Pending, port: &AhbPort) -> bool {
        !pending.is_empty() || port.req.valid()
    }

    fn responding(port: &AhbPort) -> bool {
        port.resp.valid()
    }
}
