//! VCI initiator front end (all three flavours).

use super::{deliver_one, FrontEnd, Initiator};
use noc_protocols::vci::{VciFlavor, VciPort, VciResp, VciSocket};
use noc_transaction::{Opcode, StreamId, TransactionRequest, TransactionResponse};
use std::collections::VecDeque;

/// Hosts a [`VciMaster`](noc_protocols::vci::VciMaster). Pair PVCI/BVCI
/// with [`noc_transaction::OrderingModel::FullyOrdered`] and AVCI with
/// [`noc_transaction::OrderingModel::Threaded`].
pub type VciInitiator = Initiator<VciSocket>;

impl VciInitiator {
    /// The wrapped master's flavour.
    pub fn flavor(&self) -> VciFlavor {
        self.master.flavor()
    }
}

impl FrontEnd for VciSocket {
    type Pending = VecDeque<VciResp>;

    fn deliver(pending: &mut Self::Pending, port: &mut VciPort) {
        deliver_one(pending, &mut port.resp);
    }

    fn pull_request(port: &mut VciPort) -> Option<TransactionRequest> {
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
        pending.push_back(VciResp {
            thread: stream.raw() as u8,
            status: resp.status(),
            data,
        });
    }

    fn holds_traffic(pending: &Self::Pending, port: &VciPort) -> bool {
        !pending.is_empty() || port.req.valid()
    }

    fn responding(port: &VciPort) -> bool {
        port.resp.valid()
    }
}
