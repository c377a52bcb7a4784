#include "types/messages.hpp"

#include "support/assert.hpp"

namespace moonshot {

namespace {

enum class Tag : std::uint8_t {
  kProposal = 0,
  kOptProposal = 1,
  kFbProposal = 2,
  kVote = 3,
  kTimeout = 4,
  kCert = 5,
  kTc = 6,
  kStatus = 7,
  kBlockRequest = 8,
  kBlockResponse = 9,
};

void put_optional_qc(Writer& w, const QcPtr& qc) {
  w.boolean(qc != nullptr);
  if (qc) qc->serialize(w);
}

QcPtr get_optional_qc(Reader& r, bool& ok) {
  auto has = r.boolean();
  if (!has) {
    ok = false;
    return nullptr;
  }
  if (!*has) return nullptr;
  auto qc = QuorumCert::deserialize(r);
  if (!qc) {
    ok = false;
    return nullptr;
  }
  return std::make_shared<const QuorumCert>(std::move(*qc));
}

void put_optional_tc(Writer& w, const TcPtr& tc) {
  w.boolean(tc != nullptr);
  if (tc) tc->serialize(w);
}

TcPtr get_optional_tc(Reader& r, bool& ok) {
  auto has = r.boolean();
  if (!has) {
    ok = false;
    return nullptr;
  }
  if (!*has) return nullptr;
  auto tc = TimeoutCert::deserialize(r);
  if (!tc) {
    ok = false;
    return nullptr;
  }
  return std::make_shared<const TimeoutCert>(std::move(*tc));
}

}  // namespace

void serialize_message(const Message& m, Writer& w) {
  std::visit(
      [&w](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, ProposalMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kProposal));
          msg.block->serialize(w);
          put_optional_qc(w, msg.justify);
          put_optional_tc(w, msg.tc);
          w.u32(msg.sender);
        } else if constexpr (std::is_same_v<T, OptProposalMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kOptProposal));
          msg.block->serialize(w);
          w.u32(msg.sender);
        } else if constexpr (std::is_same_v<T, FbProposalMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kFbProposal));
          msg.block->serialize(w);
          put_optional_qc(w, msg.justify);
          put_optional_tc(w, msg.tc);
          w.u32(msg.sender);
        } else if constexpr (std::is_same_v<T, VoteMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kVote));
          msg.vote.serialize(w);
        } else if constexpr (std::is_same_v<T, TimeoutMsgWrap>) {
          w.u8(static_cast<std::uint8_t>(Tag::kTimeout));
          msg.timeout.serialize(w);
        } else if constexpr (std::is_same_v<T, CertMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kCert));
          msg.qc->serialize(w);
          w.u32(msg.sender);
        } else if constexpr (std::is_same_v<T, TcMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kTc));
          msg.tc->serialize(w);
          w.u32(msg.sender);
        } else if constexpr (std::is_same_v<T, StatusMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kStatus));
          w.u64(msg.view);
          put_optional_qc(w, msg.lock);
          w.u32(msg.sender);
        } else if constexpr (std::is_same_v<T, BlockRequestMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kBlockRequest));
          w.raw(msg.id.view());
          w.u32(msg.sender);
        } else if constexpr (std::is_same_v<T, BlockResponseMsg>) {
          w.u8(static_cast<std::uint8_t>(Tag::kBlockResponse));
          msg.block->serialize(w);
          w.u32(msg.sender);
        }
      },
      m);
}

MessagePtr deserialize_message(Reader& r) {
  auto tag = r.u8();
  if (!tag) return nullptr;
  bool ok = true;
  switch (static_cast<Tag>(*tag)) {
    case Tag::kProposal: {
      ProposalMsg m;
      m.block = Block::deserialize(r);
      if (!m.block) return nullptr;
      m.justify = get_optional_qc(r, ok);
      m.tc = get_optional_tc(r, ok);
      auto sender = r.u32();
      if (!ok || !sender) return nullptr;
      m.sender = *sender;
      return std::make_shared<const Message>(std::move(m));
    }
    case Tag::kOptProposal: {
      OptProposalMsg m;
      m.block = Block::deserialize(r);
      auto sender = r.u32();
      if (!m.block || !sender) return nullptr;
      m.sender = *sender;
      return std::make_shared<const Message>(std::move(m));
    }
    case Tag::kFbProposal: {
      FbProposalMsg m;
      m.block = Block::deserialize(r);
      if (!m.block) return nullptr;
      m.justify = get_optional_qc(r, ok);
      m.tc = get_optional_tc(r, ok);
      auto sender = r.u32();
      if (!ok || !sender) return nullptr;
      m.sender = *sender;
      return std::make_shared<const Message>(std::move(m));
    }
    case Tag::kVote: {
      auto vote = Vote::deserialize(r);
      if (!vote) return nullptr;
      return std::make_shared<const Message>(VoteMsg{std::move(*vote)});
    }
    case Tag::kTimeout: {
      auto t = TimeoutMsg::deserialize(r);
      if (!t) return nullptr;
      return std::make_shared<const Message>(TimeoutMsgWrap{std::move(*t)});
    }
    case Tag::kCert: {
      auto qc = QuorumCert::deserialize(r);
      auto sender = r.u32();
      if (!qc || !sender) return nullptr;
      CertMsg m;
      m.qc = std::make_shared<const QuorumCert>(std::move(*qc));
      m.sender = *sender;
      return std::make_shared<const Message>(std::move(m));
    }
    case Tag::kTc: {
      auto tc = TimeoutCert::deserialize(r);
      auto sender = r.u32();
      if (!tc || !sender) return nullptr;
      TcMsg m;
      m.tc = std::make_shared<const TimeoutCert>(std::move(*tc));
      m.sender = *sender;
      return std::make_shared<const Message>(std::move(m));
    }
    case Tag::kStatus: {
      StatusMsg m;
      auto view = r.u64();
      if (!view) return nullptr;
      m.view = *view;
      m.lock = get_optional_qc(r, ok);
      auto sender = r.u32();
      if (!ok || !sender) return nullptr;
      m.sender = *sender;
      return std::make_shared<const Message>(std::move(m));
    }
    case Tag::kBlockRequest: {
      auto id = r.raw(BlockId::size());
      auto sender = r.u32();
      if (!id || !sender) return nullptr;
      BlockRequestMsg m;
      m.id = BlockId::from_view(*id);
      m.sender = *sender;
      return std::make_shared<const Message>(std::move(m));
    }
    case Tag::kBlockResponse: {
      BlockResponseMsg m;
      m.block = Block::deserialize(r);
      auto sender = r.u32();
      if (!m.block || !sender) return nullptr;
      m.sender = *sender;
      return std::make_shared<const Message>(std::move(m));
    }
  }
  return nullptr;
}

std::uint64_t message_wire_size(const Message& m) {
  Writer w;
  serialize_message(m, w);
  std::uint64_t size = w.size();
  std::visit(
      [&size](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, ProposalMsg> || std::is_same_v<T, OptProposalMsg> ||
                      std::is_same_v<T, FbProposalMsg> ||
                      std::is_same_v<T, BlockResponseMsg>) {
          size += msg.block->payload().synthetic_size;
        }
      },
      m);
  return size;
}

const char* message_type_name(const Message& m) {
  return std::visit(
      [](const auto& msg) -> const char* {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, ProposalMsg>) return "propose";
        else if constexpr (std::is_same_v<T, OptProposalMsg>) return "opt-propose";
        else if constexpr (std::is_same_v<T, FbProposalMsg>) return "fb-propose";
        else if constexpr (std::is_same_v<T, VoteMsg>) return vote_kind_name(msg.vote.kind);
        else if constexpr (std::is_same_v<T, TimeoutMsgWrap>) return "timeout";
        else if constexpr (std::is_same_v<T, CertMsg>) return "cert";
        else if constexpr (std::is_same_v<T, TcMsg>) return "tc";
        else if constexpr (std::is_same_v<T, StatusMsg>) return "status";
        else if constexpr (std::is_same_v<T, BlockRequestMsg>) return "block-request";
        else if constexpr (std::is_same_v<T, BlockResponseMsg>) return "block-response";
        else return "?";
      },
      m);
}

}  // namespace moonshot
